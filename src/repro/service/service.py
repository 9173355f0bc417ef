"""The multi-query monitoring service: one shared stream, N continuous queries.

:class:`SurgeService` multiplexes a timestamp-ordered object stream across
every registered :class:`~repro.service.spec.QuerySpec`:

* **routing** — each query sees only the objects its keyword predicate
  accepts (``None`` = the whole stream), exactly as if it ran a private
  :class:`~repro.core.monitor.SurgeMonitor` over the filtered substream.
  Shards run the *shared-work execution plan*: the chunk is bucketed by
  keyword once (O(chunk + matches) instead of O(queries × chunk)),
  same-keyword/same-window queries share one sliding window pair and one
  event batch, and fully identical specs share the detector itself —
  bit-identical to independent monitors, just without the redundant work
  (see :mod:`repro.service.shards`);
* **one ingest path** — every record reaches the shards through the
  ingest tier (:class:`~repro.streams.ingest.IngestTier`: screen → reorder
  → cut → backpressure), whichever of :meth:`~SurgeService.run` or
  :meth:`~SurgeService.feed` delivered it; strict mode is the same path,
  refusing what a tolerant configuration would absorb;
* **shared chunking** — the stream is cut into chunks once; every chunk is
  broadcast to each shard exactly once, and inside the shard each query's
  detector applies its filtered slice through the batched event path;
* **sharded execution** — queries are assigned round-robin to ``shards``
  shards, driven by a pluggable executor backend (``serial`` / ``process``
  / ``remote``, see :mod:`repro.service.shards`).  Results are bit-identical
  across backends: the backend only decides *where* the identical per-shard
  code runs;
* **result bus** — every chunk yields one
  :class:`~repro.service.bus.QueryUpdate` per query (latest results,
  subscriber callbacks, per-query lag/throughput stats).

Example::

    specs = [
        QuerySpec("concerts", SurgeQuery(0.01, 0.01, 3600), keyword="concert"),
        QuerySpec("city-wide", SurgeQuery(0.05, 0.05, 1800)),
    ]
    with SurgeService(specs, shards=4, executor="process") as service:
        for updates in service.run(stream, chunk_size=1024):
            for update in updates:
                ...  # (query_id, RegionResult) pairs, freshest first
"""

from __future__ import annotations

import logging
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.base import RegionResult
from repro.obs.counters import declared
from repro.obs.tracer import FlightRecorder, Tracer
from repro.service.bus import QueryUpdate, ResultBus, ServiceStats
from repro.service.overload import OverloadConfig, OverloadGovernor, OverloadStats
from repro.service.replay import ReplaySettings
from repro.service.shards import EXECUTOR_NAMES, make_executor
from repro.service.spec import QuerySpec
from repro.state.durability import (  # the default is re-exported: the CLI reads it here
    DEFAULT_CHECKPOINT_EVERY_CHUNKS,
    Durability,
)
from repro.state.policy import CheckpointPolicy
from repro.state.recovery import (
    INGEST_SNAPSHOT_KIND,
    OBS_SNAPSHOT_KIND,
    Generation,
    ServiceManifest,
    ingest_snapshot_name,
    obs_snapshot_name,
    read_generation,
    read_manifest,
    read_previous_manifest,
    shard_snapshot_name,
)
from repro.state.snapshot import SnapshotError, write_snapshot
from repro.streams.ingest import IngestTier
from repro.streams.objects import SpatialObject
from repro.streams.watermark import IngestStats
from repro.streams.windows import OutOfOrderError

logger = logging.getLogger(__name__)

class SurgeService:
    """Continuous multi-query monitor over one shared spatial stream.

    The service is a facade over the shard executor, the result bus and
    three owned objects, each usable without it: the **ingest tier**
    (:class:`~repro.streams.ingest.IngestTier` — screen, reorder, cut,
    backpressure), the **overload governor**
    (:class:`~repro.service.overload.OverloadGovernor` — degraded-mode
    hysteresis, shed set, stretched cadence) and the **durability** object
    (:class:`~repro.state.durability.Durability` — checkpoint directory,
    cadence, write-ahead log, generations).  :meth:`checkpoint` stays here as
    the conductor that knows *what* is snapshotted.

    Parameters
    ----------
    specs:
        Initial query registrations (more can be added later with
        :meth:`add_query`); ids must be unique.
    shards:
        Number of shards the queries are spread over (round-robin in
        registration order).
    executor:
        Shard execution backend: ``"serial"``, ``"process"`` or
        ``"remote"`` (see :mod:`repro.distributed`).
    executor_options:
        Backend-specific keyword arguments; only ``remote`` accepts any
        (see :class:`repro.distributed.executor.RemoteExecutor`).
    checkpoint_dir:
        Optional checkpoint directory (see :mod:`repro.state`).  When given,
        every ingested chunk is recorded in the directory's write-ahead log
        and the service snapshots itself there whenever ``checkpoint_policy``
        says so; :meth:`restore` later resumes from the last checkpoint.
    checkpoint_policy:
        :class:`~repro.state.CheckpointPolicy` driving automatic checkpoints
        (default when a directory is given: every
        :data:`DEFAULT_CHECKPOINT_EVERY_CHUNKS` chunks).  Never consulted
        without a ``checkpoint_dir``, only recorded in the manifests a
        one-off :meth:`checkpoint` writes.
    checkpoint_extra:
        Free-form JSON-serialisable metadata stored in every manifest this
        service writes.  The settings that shape replayed results are
        recorded separately, as :attr:`replay`.
    max_lateness:
        Disorder tolerance of the ingest tier, in stream seconds.  ``0``
        (default) checks order instead of restoring it: out-of-order input
        fails fast with :class:`~repro.streams.windows.OutOfOrderError`.
        Positive: arrivals are re-sorted behind a watermark ahead of the
        chunker, stragglers displaced further than the bound are counted
        and dropped, and any stream whose disorder stays within the bound
        produces results bit-identical to the pre-sorted stream.
    on_bad_record:
        Optional callback ``(record, reason) -> None`` invoked for every
        malformed record the ingest tier quarantines (NaN timestamps,
        non-finite coordinates, non-``SpatialObject`` values, broken
        keyword payloads).  Setting it (or ``quarantine_dir``, or a
        positive ``max_lateness``) makes the screen absorb; otherwise
        (**strict mode**) a malformed record raises :class:`ValueError`.
    quarantine_dir:
        Optional directory; quarantined records are appended to
        ``quarantine.jsonl`` there (one JSON line each: reason + record),
        in addition to being counted in
        :attr:`~repro.service.bus.ServiceStats.ingest`.  The spill is
        observability, not state: replaying a crashed run may append a
        pre-crash record again, but the counters are checkpointed and stay
        exactly-once.  An unwritable or full directory never kills
        ingestion — failed spills are counted
        (:attr:`~repro.streams.watermark.IngestStats.spill_errors`) with a
        one-time warning, and the service continues.
    max_inflight_chunks:
        Optional bound (in chunks) on the raw arrivals the ingest tier
        holds back ahead of the shard executors (reorder heap plus partial
        chunk).  When the budget would be exceeded, the oldest held-back
        arrivals are force-released early and dispatched: memory stays
        provably bounded at
        ``max_inflight_chunks × chunk_size`` objects whatever the stream
        does, trading a slice of the reorder horizon under pressure
        (force-released objects are counted; a straggler landing behind the
        raised order floor is dropped as late).  ``None`` (default)
        disables the budget.
    overload:
        Optional :class:`~repro.service.overload.OverloadConfig` enabling
        degraded mode: when the observed queue depth (buffered ingest work
        and/or the deepest bounded bus subscription, measured in chunks)
        crosses the high watermark, the service flips into a counted
        degraded state and applies the configured policy — ``shed`` (skip
        chunks for low-priority route classes), ``stretch`` (widen the
        checkpoint cadence), or ``error`` (raise
        :class:`~repro.service.overload.OverloadError`) — until depth
        falls back to the low watermark (hysteresis).  All transitions and
        shed work are counted in
        :attr:`~repro.service.bus.ServiceStats.overload`.
    compact_every_chunks:
        Optional cadence (in chunks) for automatic safe-boundary
        re-epoching: every that-many ingested chunks the service runs a
        :meth:`compact` pass, merging late-registered queries whose window
        state has converged with their route-mates' back into shared plan
        groups (restoring the sharing a churn storm destroyed).  ``None``
        (default) means manual :meth:`compact` calls only.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` enabling pipeline-wide
        stage tracing (see :mod:`repro.obs`): every shard records spans for
        its routing/window/sweep/settle stages and ships them back with the
        chunk's results, the ingest tier traces reorder and quarantine work,
        and the bus traces publication — all into the tracer's bounded
        flight recorder.  A tracer with ``enabled=False`` keeps the plumbing
        attached but records nothing (the zero-overhead off switch the
        benchmarks measure).  The recorder is included in checkpoints and
        restored by :meth:`restore` when a tracer is passed there.
    """

    def __init__(
        self,
        specs: Sequence[QuerySpec] = (),
        *,
        shards: int = 1,
        executor: str = "serial",
        executor_options: Mapping[str, Any] | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        checkpoint_extra: Mapping[str, Any] | None = None,
        max_lateness: float = 0.0,
        on_bad_record: Callable[[Any, str], None] | None = None,
        quarantine_dir: str | Path | None = None,
        max_inflight_chunks: int | None = None,
        overload: OverloadConfig | None = None,
        compact_every_chunks: int | None = None,
        tracer: Tracer | None = None,
        _resumed: Generation | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if executor.lower() not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of "
                f"{', '.join(EXECUTOR_NAMES)}"
            )
        self._settings = settings = ReplaySettings(
            max_lateness=float(max_lateness),
            max_inflight_chunks=max_inflight_chunks,
            overload=overload,
            compact_every_chunks=compact_every_chunks,
        )
        # ``_resumed`` is restore()'s side door: the state a checkpoint
        # recorded, in place of the fresh-start defaults below.
        manifest = _resumed.manifest if _resumed is not None else None
        self.executor_name = executor.lower()
        self.executor_options = dict(executor_options) if executor_options else {}
        self.n_shards = shards
        # Overload tier (see the class docstring): degraded-mode state
        # machine, compaction cadence.
        self.max_inflight_chunks = settings.max_inflight_chunks
        self.compact_every_chunks = settings.compact_every_chunks
        recorded = manifest.overload if manifest is not None else None
        self._governor = OverloadGovernor(
            settings.overload,
            OverloadStats.from_dict(recorded["stats"]) if recorded else None,
        )
        # The ingest tier (see feed()): every record reaches push_many
        # through it — screened, ordered, cut into chunks, held to a budget.
        # A resumed tier arrives whole; only its configuration is fresh,
        # the recorded chunk size among it.
        tier = IngestTier(
            settings.max_lateness,
            on_bad_record=on_bad_record,
            quarantine_dir=quarantine_dir,
            max_inflight_chunks=settings.max_inflight_chunks,
            tracer=tracer,
        )
        if _resumed is not None:
            tier.chunk_size = manifest.replay["chunk_size"]
            if _resumed.ingest is not None:
                tier = _resumed.ingest.reattach(tier)
        self._ingest = tier
        self.max_lateness = tier.max_lateness
        self.quarantine_dir = tier.quarantine_dir
        # Round-robin assignment keyed to a monotone registration counter:
        # removals never reshuffle surviving queries, so a given sequence of
        # add/remove operations lands every query on the same shard under
        # every backend and shard count stays load-balanced over time.
        self._shard_of: dict[str, int] = {}
        self._order: list[str] = []
        self._specs: dict[str, QuerySpec] = {}
        self._registered = 0
        shard_specs: list[list[QuerySpec]] = [[] for _ in range(shards)]
        if manifest is None:
            for spec in specs:
                self._claim(spec)
                shard_specs[self._shard_of[spec.query_id]].append(spec)
        else:
            # Registry bookkeeping comes from the manifest verbatim:
            # replaying round-robin over the surviving specs would
            # mis-assign after removals, and the shard snapshot files
            # (loaded below, into shards built empty) already partition by
            # the recorded assignment.
            self._order = list(manifest.order)
            self._shard_of = dict(manifest.shard_of)
            self._specs = {spec.query_id: spec for spec in specs}
            self._registered = manifest.registered
        # Durability is attached before the executor is built: a directory
        # that already holds a checkpoint is refused before any worker is
        # spawned, and the remote tier must know whether it has durable
        # generations to fail over to.
        remote = self.executor_name == "remote"
        self._durability = Durability(
            checkpoint_dir,
            checkpoint_policy,
            checkpoint_extra,
            remote=remote,
            resumed=manifest,
        )
        if remote and not self._durability.attached:
            # Legal but worth flagging: without durable generations the
            # failover base degrades to "rebuild from specs + replay every
            # mutating message since the start" — correct, unbounded memory.
            logger.warning(
                "remote executor without checkpoint_dir: worker failover "
                "must replay the full message ledger from the start of the "
                "stream; attach checkpoint_dir=... to bound recovery",
                extra={"executor": self.executor_name},
            )
        self._executor = make_executor(
            self.executor_name, shard_specs, **self.executor_options
        )
        self._closed = False
        self.bus = ResultBus()
        # Observability tier (see repro.obs): shard-side span recording is
        # switched on with one control message; the shards ship their spans
        # back piggybacked on each chunk's reply, so the per-chunk cost of
        # tracing is one list per shard, never an extra round-trip.
        self._tracer = tracer
        self.bus.tracer = tracer
        set_tracer = getattr(self._executor, "set_tracer", None)
        if set_tracer is not None and tracer is not None:
            # The remote coordinator records its own spans (remote.scatter,
            # remote.failover) into the service tracer's recorder.
            set_tracer(tracer)
        if tracer is not None and tracer.enabled:
            self._executor.broadcast(("trace", True))
        #: Listener configuration recorded by the network tier (see
        #: :mod:`repro.server`): persisted in the manifest so a ``--resume``
        #: can re-serve the same endpoint without re-specifying it.
        self.server_info: dict[str, Any] | None = None
        self._time = float("-inf")
        self._chunk_index = 0
        self._chunk_offset = 0
        self._stats = ServiceStats()
        if _resumed is not None:
            self._time = manifest.stream_time
            self._chunk_index = manifest.chunk_index
            self._chunk_offset = manifest.chunk_offset
            stats = dict(manifest.stats)
            self.bus.subscriber_errors = stats.pop("subscriber_errors")
            self.bus.load_stats(stats.pop("per_query"))
            self._stats = ServiceStats(**stats)
            self.server_info = manifest.server
            try:
                self._restore_shards(_resumed.shard_paths)
            except BaseException:
                # A half-restored service may own real resources (worker
                # processes, a remote fleet); release them before the
                # caller sees the failure (or restore() falls back a
                # generation).
                self.close()
                raise

    def _restore_shards(self, shard_paths: list[Path]) -> None:
        replies = self._executor.scatter(
            [("restore", str(path)) for path in shard_paths]
        )
        for index, restored_ids in enumerate(replies):
            expected = sorted(
                query_id
                for query_id in self._order
                if self._shard_of[query_id] == index
            )
            if sorted(restored_ids) != expected:
                raise SnapshotError(
                    f"{shard_paths[index]}: shard snapshot holds queries "
                    f"{sorted(restored_ids)}, manifest expects {expected}"
                )

    def _claim(self, spec: QuerySpec) -> None:
        if spec.query_id in self._shard_of:
            raise ValueError(f"query {spec.query_id!r} is already registered")
        self._shard_of[spec.query_id] = self._registered % self.n_shards
        self._order.append(spec.query_id)
        self._specs[spec.query_id] = spec
        self._registered += 1
        self._governor.registry_changed()

    # ------------------------------------------------------------------
    # Query registry
    # ------------------------------------------------------------------
    @property
    def query_ids(self) -> list[str]:
        """Live query ids in registration order."""
        return list(self._order)

    def add_query(self, spec: QuerySpec) -> str:
        """Register a query mid-stream; it sees only objects pushed later.

        With a checkpoint directory attached the new registry is snapshotted
        immediately: registry changes are control-plane operations that the
        chunk-replay recovery cannot reconstruct from the stream, so they
        must be durable the moment they happen.
        """
        self._claim(spec)
        try:
            self._executor.send(self._shard_of[spec.query_id], ("add", spec))
        except Exception:
            # Undo _claim entirely — including the round-robin counter, or a
            # refused registration would shift every later query's shard.
            self._order.remove(spec.query_id)
            del self._shard_of[spec.query_id]
            del self._specs[spec.query_id]
            self._registered -= 1
            raise
        if self._durability.attached:
            self.checkpoint()
        return spec.query_id

    def remove_query(self, query_id: str) -> None:
        """Drop a query; its shard slot is not reused (see ``_claim``).

        Checkpointed immediately when a directory is attached, for the same
        reason as :meth:`add_query`.
        """
        if query_id not in self._shard_of:
            raise KeyError(f"query {query_id!r} is not registered")
        self._executor.send(self._shard_of[query_id], ("remove", query_id))
        self._order.remove(query_id)
        del self._shard_of[query_id]
        del self._specs[query_id]
        self._governor.registry_changed()
        self.bus.forget(query_id)
        if self._durability.attached:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Overload tier read-outs (the state machine is the OverloadGovernor)
    # ------------------------------------------------------------------
    def queue_depth_chunks(self) -> float:
        """Observed queue depth in chunks — the overload watermark's input.

        The larger of two backlogs: raw arrivals buffered ahead of the
        shards (reorder heap + pending list, over the chunk size being cut
        — a pure function of the stream, so replayed runs see the same
        depths; bare push_many callers buffer nothing there), and the
        deepest bounded bus subscription (updates, over the live query
        count: one chunk produces one update per query).
        """
        tier = self._ingest
        depth = len(tier) / tier.chunk_size if tier.chunk_size else 0.0
        if self._order:
            bus_depth = self.bus.max_queue_depth() / len(self._order)
            if bus_depth > depth:
                depth = bus_depth
        return depth

    def overload_stats(self) -> OverloadStats:
        """The overload tier's counters (all zero while never overloaded)."""
        return self._governor.stats

    @property
    def degraded(self) -> bool:
        """Whether the service is currently in degraded mode."""
        return self._governor.stats.degraded

    @property
    def overload_config(self) -> OverloadConfig | None:
        """The degraded-mode configuration (``None`` = tier off)."""
        return self._governor.config

    @property
    def replay(self) -> ReplaySettings:
        """The settings that shape replayed results, as checkpoints record
        them; ``chunk_size`` is the size the ingest tier cuts at (``None``
        until :meth:`run` / :meth:`feed` set it)."""
        return replace(self._settings, chunk_size=self._ingest.chunk_size)

    @property
    def strict(self) -> bool:
        """Whether the ingest screen refuses malformed or out-of-order records
        instead of absorbing them (a restored service keeps the recorded
        mode, whatever spill target it is given)."""
        return self._ingest.strict

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push_many(self, chunk: Iterable[SpatialObject]) -> list[QueryUpdate]:
        """Broadcast one timestamp-ordered chunk to every shard.

        Returns the per-query updates in query registration order (also
        published on :attr:`bus`).  Timestamp order is validated against the
        service clock here — per-query monitors only see their filtered
        substreams, so an out-of-order object that no query matches would
        otherwise corrupt the clock silently.
        """
        objs = chunk if isinstance(chunk, list) else list(chunk)
        previous = self._time
        for position, obj in enumerate(objs):
            if obj.timestamp < previous:
                raise OutOfOrderError(
                    f"out-of-order arrival in service chunk: object "
                    f"id={obj.object_id} (chunk position {position}) has "
                    f"timestamp t={obj.timestamp}, earlier than the "
                    f"last-accepted stream time t={previous}",
                    object_id=obj.object_id,
                    timestamp=obj.timestamp,
                    last_time=previous,
                )
            previous = obj.timestamp
        if objs:
            self._time = previous
        governor = self._governor
        shed = governor.evaluate(self.queue_depth_chunks(), self._specs.values())
        if shed:
            message = ("chunk", objs, self._chunk_index, shed)
        else:
            message = ("chunk", objs, self._chunk_index)
        updates = self._dispatch(message, len(objs))
        if shed and objs:
            governor.count_shed(len(shed))
        if objs:
            # Empty chunks are no-ops for every monitor and are never
            # produced by the ingest tier (or iter_chunks), so they must not
            # advance the replay offset — counting one would make a resume
            # skip a real chunk.
            offset = self._chunk_offset
            self._chunk_offset = offset + 1
            if (
                self.compact_every_chunks is not None
                and self._chunk_offset % self.compact_every_chunks == 0
            ):
                # Before a possible checkpoint, so the snapshot carries the
                # merged plan — and on replay the same offsets re-run the
                # same (deterministic) passes, keeping counters exactly-once.
                self.compact()
            durability = self._durability
            if (
                durability.attached
                and durability.log_chunk(offset, len(objs), self._time)
                and not governor.defers_checkpoint(
                    lambda stretch: durability.due(
                        self._chunk_offset, self._time, stretch
                    )
                )
            ):
                self.checkpoint()
        return updates

    def push(self, obj: SpatialObject) -> list[QueryUpdate]:
        """Push a single object (a one-object chunk)."""
        return self.push_many([obj])

    def compact(self) -> int:
        """Safe-boundary re-epoching: restore sharing lost to churn.

        Runs between chunks (every pipeline settled at the same chunk
        boundary, no partial state anywhere) and asks every shard to merge
        late-registered queries whose window state has *converged* with
        their route-mates' back into the veterans' sharing groups — see
        :meth:`repro.service.shards.ShardState.compact` for the exactness
        argument.  Results are bit-identical before and after: the pass
        only de-duplicates provably equal state.

        Returns the number of queries merged (0 when nothing has converged
        yet — the pass is cheap and idempotent, so calling it on a cadence
        via ``compact_every_chunks`` is the intended mode).
        """
        merged = sum(self._executor.broadcast(("compact",)))
        self._governor.count_compaction(merged)
        return merged

    def advance_time(self, stream_time: float) -> list[QueryUpdate]:
        """Advance every query's clock without new arrivals.

        Clock advances are *not* recorded in the write-ahead log — the
        chunk-offset replay of recovery reconstructs the clock from the
        stream's own timestamps, not from explicit advances.  A caller
        relying on a standalone ``advance_time`` past the end of the
        replayable stream should call :meth:`checkpoint` afterwards to make
        its effects durable.
        """
        if stream_time < self._time:
            raise OutOfOrderError(
                f"cannot move stream time backwards: requested t={stream_time} "
                f"is earlier than the last-accepted stream time t={self._time}",
                timestamp=stream_time,
                last_time=self._time,
            )
        self._time = stream_time
        return self._dispatch(("advance", stream_time, self._chunk_index), 0)

    def _dispatch(self, message: tuple, n_objects: int) -> list[QueryUpdate]:
        chunk_index = self._chunk_index
        started = time.perf_counter()
        replies = self._executor.broadcast(message)
        wall = time.perf_counter() - started
        # Each shard replies one record per detector unit; each member's
        # update is built here, once, with the broadcast wall time stamped
        # as its lag: an update is only observable once the gather returns.
        by_query: dict[str, QueryUpdate] = {}
        active = 0
        for shard, reply in enumerate(replies):
            if isinstance(reply, tuple):
                # A tracing shard replies (records, spans): absorb the spans
                # into the service-side recorder, labelled with the shard's
                # lane so the exported trace shows per-shard timelines.
                reply, spans = reply
                if spans:
                    self._absorb_shard_spans(shard, spans, started)
            for ids, result, routed, busy, follower_busy, shed in reply:
                if not shed:
                    active += len(ids)
                for query_id in ids:
                    by_query[query_id] = QueryUpdate(
                        query_id, chunk_index, result, routed, busy, wall, shed
                    )
                    busy = follower_busy  # the leader comes first
        updates = [
            by_query[query_id] for query_id in self._order if query_id in by_query
        ]
        self._chunk_index += 1
        self._stats.objects_pushed += n_objects
        self._stats.chunks_pushed += 1
        # Shed queries did no work on this chunk, so they contribute no
        # object–query pairs to the throughput headline.
        self._stats.object_query_pairs += n_objects * active
        self._stats.wall_seconds += wall
        self.bus.publish(updates)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            threshold = tracer.slow_chunk_threshold
            if threshold is not None and wall > threshold:
                self._record_slow_chunk(chunk_index, wall, started)
        return updates

    def _absorb_shard_spans(
        self, shard: int, spans: list[tuple], dispatch_started: float
    ) -> None:
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return
        if self.executor_name in ("process", "remote"):
            # Worker processes run on their own perf_counter epoch; rebase
            # their spans onto this process's clock (anchored at the
            # dispatch start) so all lanes share one timeline.  The serial
            # executor already shares the clock — no shift.
            delta = dispatch_started - min(span[1] for span in spans)
        else:
            delta = 0.0
        lane = f"shard{shard}"
        recorder = tracer.recorder
        for stage, start, duration, span_lane, chunk, meta in spans:
            recorder.record(
                (stage, start + delta, duration, span_lane or lane, chunk, meta)
            )

    def _record_slow_chunk(
        self, chunk_index: int, wall: float, started: float
    ) -> None:
        """Capture a slow chunk: its span tree plus the live queue depths."""
        tracer = self._tracer
        assert tracer is not None
        depths = self._ingest.depths()
        depths["bus_max_queue_depth"] = self.bus.max_queue_depth()
        depths["queue_depth_chunks"] = self.queue_depth_chunks()
        spans = [span for span in tracer.recorder.spans() if span[1] >= started]
        count = tracer.recorder.record_slow_chunk(
            {
                "chunk_index": chunk_index,
                "wall_seconds": wall,
                "threshold_seconds": tracer.slow_chunk_threshold,
                "spans": spans,
                "depths": depths,
            }
        )
        logger.warning(
            "slow chunk %d: %.6fs wall (threshold %.6fs), %d spans captured",
            chunk_index,
            wall,
            tracer.slow_chunk_threshold,
            len(spans),
            extra={
                "chunk_index": chunk_index,
                "wall_seconds": wall,
                "threshold_seconds": tracer.slow_chunk_threshold,
                "slow_chunks": count,
            },
        )

    def run(
        self,
        stream: Iterable[Any],
        chunk_size: int = 512,
        start_offset: int = 0,
    ) -> Iterator[list[QueryUpdate]]:
        """Chunk a whole stream through the service, yielding per-chunk updates.

        :meth:`feed` over the stream, then :meth:`flush_pending` — one
        ingest path, so the chunks the shards see are exactly those of the
        pre-sorted, well-formed stream in every mode.

        ``start_offset`` skips that many leading chunks — the resume idiom:
        a service restored from a checkpoint replays the same stream with
        ``start_offset=service.chunk_offset`` (and the *same* ``chunk_size``
        as the original run, or the skipped prefix would not line up), so
        every chunk lands in the service state exactly once.  ``stream`` is
        always the whole stream from its start; the ingest tier works out
        the prefix it has already consumed
        (:meth:`~repro.streams.ingest.IngestTier.unconsumed`): whole chunks
        in strict mode, raw records once records may be quarantined, dropped
        or held back across a chunk boundary.
        """
        rest = self._ingest.unconsumed(
            stream, chunk_size, start_offset, self._chunk_offset
        )
        yield from self.feed(rest, chunk_size)
        yield from self.flush_pending(chunk_size)

    def feed(
        self, records: Iterable[Any], chunk_size: int = 512
    ) -> Iterator[list[QueryUpdate]]:
        """Push-style incremental ingestion — the network tier's entry point.

        Accepts arrivals in arbitrary batches and dispatches whatever *full*
        chunks they complete, holding the remainder (and the reorder
        buffer's contents) for the next batch.  Interleaving ``feed`` calls
        with :meth:`flush_pending` at the very end is bit-identical to one
        :meth:`run` over the concatenated batches: chunk boundaries depend
        only on the arrival sequence, never on how it was split across
        calls.

        Every record goes through the ingest tier
        (:class:`~repro.streams.ingest.IngestTier`): screened, put in
        timestamp order, cut into chunks.  What a tolerant configuration
        absorbs, strict mode refuses — a malformed record raises
        :class:`ValueError`, an out-of-order one
        :class:`~repro.streams.windows.OutOfOrderError` — before anything of
        the offending chunk reaches a window.
        """
        tier = self._ingest
        tier.set_chunk_size(chunk_size)
        # Chunks a restored tier already holds go first, as they did in the
        # run the checkpoint interrupted.
        yield from self._dispatch_ready()
        for record in records:
            if tier.push(record, self._time):
                yield from self._dispatch_ready()

    def flush_pending(
        self, chunk_size: int | None = None
    ) -> Iterator[list[QueryUpdate]]:
        """Release every held-back arrival and dispatch the remainder.

        End-of-stream semantics for :meth:`feed`: the reorder buffer is
        drained in order and the pending list is cut into chunks, the last
        possibly short — exactly what chunking the pre-sorted stream would
        have produced.  Safe to call when nothing is pending (no-op).
        """
        if chunk_size is not None:
            self._ingest.set_chunk_size(chunk_size)
        yield from self._dispatch_ready(final=True)

    def _dispatch_ready(self, final: bool = False) -> Iterator[list[QueryUpdate]]:
        # One chunk at a time: a checkpoint firing inside push_many finds
        # the dispatched chunk off the tier (it is counted in chunk_offset)
        # and every later one still inside it.
        while (chunk := self._ingest.pop_chunk(final)) is not None:
            yield self.push_many(chunk)

    # ------------------------------------------------------------------
    # Results and stats
    # ------------------------------------------------------------------
    def results(self) -> dict[str, RegionResult | None]:
        """Current result of every live query (queried from the shards)."""
        merged: dict[str, RegionResult | None] = {}
        for reply in self._executor.broadcast(("results",)):
            merged.update(reply)
        return {query_id: merged[query_id] for query_id in self._order}

    def top_k(self, k: int | None = None) -> dict[str, list[RegionResult]]:
        """Current top-k regions of every live query (best first)."""
        merged: dict[str, list[RegionResult]] = {}
        for reply in self._executor.broadcast(("top_k", k)):
            merged.update(reply)
        return {query_id: merged[query_id] for query_id in self._order}

    def latest(self, query_id: str) -> QueryUpdate | None:
        """Most recent bus update for a query — no shard round-trip."""
        return self.bus.latest(query_id)

    def stats(self) -> ServiceStats:
        """Aggregate service stats with per-query lag/throughput attached."""
        self._stats.per_query = {
            query_id: self.bus.stats(query_id) for query_id in self._order
        }
        self._stats.ingest = self.ingest_stats()
        self._stats.overload = self._governor.stats
        return self._stats

    def distributed_stats(self) -> dict[str, Any] | None:
        """The distributed tier's failure counters (``None`` off-remote).

        A dict snapshot of the remote coordinator's
        :class:`~repro.distributed.stats.DistributedStats` plus live fleet
        gauges (``workers_alive``, ``workers_total``, ``ledger_depth``) —
        the payload behind the stats frame's ``distributed`` section and
        the ``repro_remote_*`` Prometheus series.
        """
        snapshot = getattr(self._executor, "stats_snapshot", None)
        return snapshot() if snapshot is not None else None

    @property
    def tracer(self) -> Tracer | None:
        """The attached tracer (``None`` = observability tier off)."""
        return self._tracer

    def stage_stats(self) -> dict[str, dict[str, Any]]:
        """Per-stage latency aggregates from the attached tracer's recorder.

        Stage-sorted ``{stage: {count, total_seconds, min_seconds,
        max_seconds, buckets}}`` — the payload behind the stats frame's
        ``stages`` section and the ``repro_stage_seconds`` Prometheus
        histograms.  Empty without a tracer (or before any span).
        """
        if self._tracer is None:
            return {}
        return self._tracer.recorder.stage_stats()

    def ingest_stats(self) -> IngestStats:
        """The ingest tier's live counters, plus ``subscriber_errors``, which
        the bus isolates and counts (in strict mode only it and
        ``peak_buffered`` ever move)."""
        stats = self._ingest.stats
        stats.subscriber_errors = self.bus.subscriber_errors
        return stats

    # ------------------------------------------------------------------
    # Durability (see repro.state for the file formats)
    # ------------------------------------------------------------------
    @property
    def chunk_offset(self) -> int:
        """Number of stream chunks ingested so far (the replay offset)."""
        return self._chunk_offset

    @property
    def chunk_index(self) -> int:
        """Number of chunk dispatches so far (empty chunks included)."""
        return self._chunk_index

    @property
    def stream_time(self) -> float:
        """The last-accepted stream timestamp (``-inf`` before any object)."""
        return self._time

    @property
    def raw_consumed(self) -> int:
        """Raw records consumed by ``feed`` / ``run`` (replay offset)."""
        return self._ingest.raw_consumed

    @property
    def checkpoint_dir(self) -> Path | None:
        """The attached checkpoint directory (``None`` = durability off)."""
        return self._durability.directory

    @property
    def checkpoint_policy(self) -> CheckpointPolicy:
        """The automatic checkpoint cadence (never consulted when detached)."""
        return self._durability.policy

    @property
    def checkpoint_extra(self) -> dict[str, Any]:
        """The caller metadata stored in every manifest this service writes."""
        return self._durability.extra

    @property
    def checkpoint_prune_errors(self) -> int:
        """Failed checkpoint-prune deletes so far (counted, never fatal)."""
        return self._durability.prune_errors

    def checkpoint(self, directory: str | Path | None = None) -> Path:
        """Snapshot the whole service durably; returns the manifest path.

        Every shard writes its own generation-tagged snapshot file (under
        the process executor, inside its worker process), then the service
        manifest — query registry, shard assignment, chunk offset, stream
        clock, cumulative stats — is atomically replaced and the write-ahead
        log restarted from the new checkpoint record.  A crash at any point
        leaves the previous checkpoint fully usable.

        With no argument the attached ``checkpoint_dir`` is used (this is
        what the automatic policy calls); an explicit ``directory`` takes a
        one-off checkpoint there without attaching it.
        """
        tracer = self._tracer
        traced = tracer is not None and tracer.enabled
        checkpoint_started = time.perf_counter() if traced else 0.0
        durability = self._durability
        target, generation = durability.allocate(directory)
        shard_files = [
            shard_snapshot_name(index, generation) for index in range(self.n_shards)
        ]
        shard_meta = {
            "generation": generation,
            "chunk_offset": self._chunk_offset,
            "chunk_index": self._chunk_index,
        }
        self._executor.scatter(
            [
                ("checkpoint", str(target / name), dict(shard_meta, shard=index))
                for index, name in enumerate(shard_files)
            ]
        )
        ingest_record: dict[str, Any] | None = None
        tier = self._ingest
        if not tier.strict or tier.raw_consumed:
            # The ingest tier's held-back events are part of checkpoint
            # state: without them a resume would replay the raw stream into
            # an empty buffer and double- or under-deliver around the
            # watermark.  A strict tier no record went through (a service
            # driven by bare push_many) holds nothing.  Written before the
            # manifest (same crash-safety ordering as the shard files).
            ingest_file = ingest_snapshot_name(generation)
            write_snapshot(
                target / ingest_file, INGEST_SNAPSHOT_KIND, tier, meta=shard_meta
            )
            ingest_record = {"snapshot_file": ingest_file}
        obs_record: dict[str, Any] | None = None
        if tracer is not None:
            # The flight recorder is state worth surviving a crash: the
            # aggregates are the service's latency history and the ring is
            # the last-moments evidence an operator wants after a restore.
            obs_file = obs_snapshot_name(generation)
            write_snapshot(
                target / obs_file,
                OBS_SNAPSHOT_KIND,
                tracer.recorder,
                meta=dict(shard_meta),
            )
            obs_record = {
                "snapshot_file": obs_file,
                "enabled": tracer.enabled,
                "slow_chunk_threshold": tracer.slow_chunk_threshold,
            }
        overload_stats = self._governor.stats
        overload_record = (
            {"stats": declared(overload_stats)}
            if overload_stats != OverloadStats()
            else None
        )
        manifest = ServiceManifest(
            generation=generation,
            chunk_offset=self._chunk_offset,
            chunk_index=self._chunk_index,
            stream_time=self._time,
            n_shards=self.n_shards,
            executor=self.executor_name,
            order=self._order,
            shard_of=self._shard_of,
            registered=self._registered,
            specs=[self._specs[query_id].to_dict() for query_id in self._order],
            policy=durability.policy.to_dict(),
            stats=dict(
                declared(self._stats),
                subscriber_errors=self.bus.subscriber_errors,
                per_query=self.bus.export_stats(),
            ),
            shard_files=shard_files,
            replay=self.replay.to_dict(),
            extra=durability.extra,
            ingest=ingest_record,
            overload=overload_record,
            server=self.server_info,
            obs=obs_record,
        )
        path = durability.publish(target, manifest)
        if traced:
            tracer.record(
                "checkpoint",
                checkpoint_started,
                time.perf_counter(),
                meta={"generation": generation},
            )
        return path

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        *,
        executor: str | None = None,
        executor_options: Mapping[str, Any] | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        attach: bool = True,
        on_bad_record: Callable[[Any, str], None] | None = None,
        quarantine_dir: str | Path | None = None,
        tracer: Tracer | None = None,
    ) -> "SurgeService":
        """Rebuild a service from the last checkpoint in ``directory``.

        The restored service is *bit-identical* to the checkpointed one:
        every query's monitor resumes mid-stream exactly where the snapshot
        left it, so replaying the original stream from
        ``service.chunk_offset`` (``iter_chunks(start_offset=...)`` /
        :meth:`run` with ``start_offset``) reproduces the uninterrupted run.
        The recovery unit is the *chunk*: registry changes are made durable
        at the moment they happen (see :meth:`add_query`), but a standalone
        :meth:`advance_time` after the last checkpoint is not replayable
        from the stream and needs an explicit :meth:`checkpoint` to survive
        a crash.

        ``executor`` optionally overrides the recorded backend (results are
        identical across backends); the shard count always comes from the
        manifest, because the per-shard snapshot files partition the queries.
        With ``attach=True`` (default) the directory stays attached for
        further WAL appends and automatic checkpoints.  ``attach=False``
        leaves the service detached (``checkpoint_dir is None``, no WAL, no
        automatic checkpoints).  Either way it carries the recorded
        ``checkpoint_extra`` and cadence (``checkpoint_policy`` overrides
        the latter), so a one-off ``checkpoint(elsewhere)`` relocates the
        checkpoint without losing them.

        The replay-shaping settings (:attr:`replay`: chunk size, lateness,
        in-flight budget, overload configuration, compaction cadence) come
        from the manifest's one ``replay`` section and cannot be changed
        mid-stream.  The ingest tier is restored whole from its snapshot —
        held-back events, pending list, raw-record replay offset, counters
        and screen mode (:attr:`strict`).  ``on_bad_record`` /
        ``quarantine_dir`` re-attach the non-picklable spill targets
        (callbacks and paths are configuration, not state).

        ``tracer`` re-attaches the observability tier (a tracer, like a
        callback, is configuration): when the checkpoint carries a flight
        recorder snapshot, the recorder's ring and per-stage aggregates are
        loaded into the passed tracer, so latency history accumulates
        across restarts.  Without a ``tracer`` argument the snapshot is
        left on disk untouched.

        Crash-window resilience: when the newest checkpoint is unusable —
        a manifest torn mid-write, or a manifest published but one of its
        shard/ingest snapshot files interrupted — restore falls back to
        the previous generation via the ``MANIFEST.prev.json`` backup
        (:func:`~repro.state.recovery.read_previous_manifest`; its shard
        files survive because pruning keeps the last *two* generations).
        The fallback logs a structured warning and resumes exactly-once
        from the older offset: the WAL is reset to that checkpoint and the
        stream replay re-applies the lost chunks.
        """
        directory = Path(directory)

        def build(manifest: ServiceManifest) -> "SurgeService":
            # The manifest read back as the constructor's own arguments,
            # plus the state only a checkpoint has (``_resumed``).
            resumed = read_generation(
                directory, manifest, want_recorder=tracer is not None
            )
            if isinstance(resumed.recorder, FlightRecorder):
                tracer.recorder = resumed.recorder
            return cls(
                [QuerySpec.from_dict(record) for record in manifest.specs],
                shards=manifest.n_shards,
                executor=executor if executor is not None else manifest.executor,
                executor_options=executor_options,
                checkpoint_dir=directory if attach else None,
                checkpoint_policy=(
                    checkpoint_policy
                    if checkpoint_policy is not None
                    else CheckpointPolicy.from_dict(manifest.policy)
                ),
                checkpoint_extra=manifest.extra,
                on_bad_record=on_bad_record,
                quarantine_dir=quarantine_dir,
                tracer=tracer,
                _resumed=resumed,
                **ReplaySettings.from_dict(manifest.replay).keywords(),
            )

        manifest: ServiceManifest | None = None
        try:
            manifest = read_manifest(directory)
            return build(manifest)
        except SnapshotError as newest_error:
            previous = read_previous_manifest(directory)
            if previous is None or (
                manifest is not None
                and previous.generation >= manifest.generation
            ):
                raise
            logger.warning(
                "restore from %s generation %s failed (%s); falling back "
                "to the previous manifest (generation %d)",
                directory,
                manifest.generation if manifest is not None else "?",
                newest_error,
                previous.generation,
                extra={
                    "event": "restore_fallback",
                    "directory": str(directory),
                    "fallback_generation": previous.generation,
                },
            )
            return build(previous)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the shard executor (idempotent)."""
        if not self._closed:
            self._executor.close()
            self._closed = True

    def __enter__(self) -> "SurgeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SurgeService(queries={len(self._order)}, shards={self.n_shards}, "
            f"executor={self.executor_name!r})"
        )
