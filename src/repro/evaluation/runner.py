"""Run detectors over streams with the paper's measurement protocol.

The protocol of Section VII-A is: feed the stream, wait until the system is
*stable* (at least one object has expired from the past window), then measure
the processing time of every subsequent object and report the average.
:func:`run_detector` implements exactly that; :func:`run_detectors` runs
several detectors over the same stream (sharing the window-event expansion)
so that comparative figures use identical inputs.

Both accept ``chunk_size`` to run the batched ingestion path instead
(``observe_batch`` + ``apply_events``), reporting the amortised per-object
cost at that chunking; ``benchmarks/bench_ingest.py`` uses the same
primitives to track end-to-end objects/sec per detector.

The multi-query half of the harness mirrors the same protocol one level up:
:func:`run_service` replays a shared stream through a
:class:`~repro.service.SurgeService` and reports aggregate
object·query-pair throughput plus per-query lag/throughput, and
:func:`service_scenario_grid` sweeps a (query count × shard count ×
executor) grid over the same stream — the scenario matrix
``benchmarks/bench_service.py`` tracks.

The durability axis is measured by the same primitives:
:func:`run_service` accepts ``checkpoint_dir`` / ``checkpoint_policy`` so the
checkpointed and checkpoint-free throughput come from identical replays, and
:func:`measure_recovery` stages a mid-stream crash and times
restore-plus-tail-replay against a full from-scratch replay (the numbers
``benchmarks/bench_recovery.py`` tracks), asserting result parity as it goes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.base import BurstyRegionDetector, DetectorStats, RegionResult
from repro.core.monitor import make_detector
from repro.core.query import SurgeQuery
from repro.evaluation.metrics import TimingSummary, summarize_times
from repro.streams.objects import SpatialObject
from repro.streams.windows import SlidingWindowPair


@dataclass
class RunResult:
    """Outcome of running one detector over one stream."""

    detector_name: str
    query: SurgeQuery
    timing: TimingSummary
    stats: DetectorStats
    objects_total: int
    objects_measured: int
    stream_span_seconds: float
    final_result: RegionResult | None
    final_top_k: list[RegionResult] = field(default_factory=list)

    @property
    def mean_time_per_object_micros(self) -> float:
        """Average per-object processing time in microseconds."""
        return self.timing.mean_micros


def run_detector(
    detector: BurstyRegionDetector | str,
    query: SurgeQuery,
    stream: list[SpatialObject],
    warmup: str = "stable",
    max_measured_objects: int | None = None,
    chunk_size: int | None = None,
    **detector_options,
) -> RunResult:
    """Run a detector over a stream and measure per-object processing time.

    Parameters
    ----------
    detector:
        A detector instance or a name accepted by
        :func:`repro.core.monitor.make_detector`.
    query:
        The SURGE query; also used to build the detector when a name is given.
    stream:
        Timestamp-ordered spatial objects.
    warmup:
        ``"stable"`` measures only after the paper's stability condition is
        reached; ``"none"`` measures from the first object.
    max_measured_objects:
        Optional cap on the number of measured objects (the run still
        processes the whole stream).
    chunk_size:
        ``None`` (default) replays the paper's per-event protocol.  A
        positive value ingests the stream through the batched event path
        (:meth:`SlidingWindowPair.observe_batch` +
        :meth:`BurstyRegionDetector.apply_events`) in chunks of that many
        objects; each measured per-object time is then the chunk wall time
        divided by the chunk size, i.e. the amortised cost the continuous
        query pays per object at that read cadence.
    """
    if isinstance(detector, str):
        detector = make_detector(detector, query, **detector_options)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    windows = SlidingWindowPair(
        window_length=query.current_length, past_window_length=query.past_length
    )

    times: list[float] = []
    measured = 0
    if chunk_size is None:
        for obj in stream:
            events = windows.observe(obj)
            should_measure = warmup == "none" or windows.is_stable()
            if should_measure and (
                max_measured_objects is None or measured < max_measured_objects
            ):
                started = time.perf_counter()
                for event in events:
                    detector.process(event)
                # Reading the answer is part of the continuous-query contract —
                # and it is where lazily-maintained detectors (kccs) do their
                # amortized recomputation, so it must stay inside the timer.
                detector.result()
                times.append(time.perf_counter() - started)
                measured += 1
            else:
                for event in events:
                    detector.process(event)
    else:
        for start in range(0, len(stream), chunk_size):
            chunk = stream[start : start + chunk_size]
            batch = windows.observe_batch(chunk)
            should_measure = warmup == "none" or windows.is_stable()
            if should_measure and (
                max_measured_objects is None or measured < max_measured_objects
            ):
                started = time.perf_counter()
                detector.apply_events(batch)
                detector.result()
                per_object = (time.perf_counter() - started) / len(chunk)
                # Honour the cap exactly, as the per-event path does: the
                # whole chunk is still timed as one unit, but only the
                # remaining budget of samples is recorded.
                take = (
                    len(chunk)
                    if max_measured_objects is None
                    else min(len(chunk), max_measured_objects - measured)
                )
                times.extend([per_object] * take)
                measured += take
            else:
                detector.apply_events(batch)

    span = stream[-1].timestamp - stream[0].timestamp if len(stream) > 1 else 0.0
    return RunResult(
        detector_name=detector.name,
        query=query,
        timing=summarize_times(times),
        stats=detector.stats,
        objects_total=len(stream),
        objects_measured=measured,
        stream_span_seconds=span,
        final_result=detector.result(),
        final_top_k=detector.top_k(query.k),
    )


@dataclass
class ServiceRunResult:
    """Outcome of replaying one stream through one service configuration."""

    executor: str
    shards: int
    chunk_size: int
    n_queries: int
    objects_total: int
    wall_seconds: float
    object_query_pairs: int
    per_query: dict[str, dict]
    final_results: dict[str, RegionResult | None]

    @property
    def pairs_per_second(self) -> float:
        """Aggregate objects·queries/sec — the multi-tenant throughput unit."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.object_query_pairs / self.wall_seconds


def run_service(
    specs,
    stream: list[SpatialObject],
    *,
    shards: int = 1,
    executor: str = "serial",
    executor_options=None,
    chunk_size: int = 512,
    checkpoint_dir=None,
    checkpoint_policy=None,
) -> ServiceRunResult:
    """Replay a shared stream through a multi-query service and measure it.

    ``specs`` is a sequence of :class:`~repro.service.QuerySpec`.  The wall
    time covers ingestion only (service construction and worker start-up are
    excluded, matching the steady-state serving cost; the per-event
    protocol's warm-up condition does not apply because each query has its
    own window clock).

    ``checkpoint_dir`` / ``checkpoint_policy`` (see :mod:`repro.state`)
    enable durable checkpoints *inside* the measured window, so comparing a
    checkpointed run against a plain one over the same stream isolates the
    durability overhead (``benchmarks/bench_recovery.py``).

    ``executor_options`` is forwarded to the executor factory — the
    ``remote`` backend takes its fleet configuration (worker count, spawn
    mode, RPC deadlines) here (``benchmarks/bench_remote.py``).
    """
    from repro.service import SurgeService

    with SurgeService(
        specs,
        shards=shards,
        executor=executor,
        executor_options=executor_options,
        checkpoint_dir=checkpoint_dir,
        checkpoint_policy=checkpoint_policy,
    ) as service:
        # Touch every shard once before timing so process workers are
        # started (and their specs unpickled) outside the measured window.
        # results() broadcasts without publishing to the bus, so the warm-up
        # round-trip never pollutes the per-query lag/throughput stats.
        service.results()
        started = time.perf_counter()
        for _ in service.run(stream, chunk_size):
            pass
        wall = time.perf_counter() - started
        stats = service.stats()
        per_query = {
            query_id: {
                "keyword": spec.keyword,
                "algorithm": spec.algorithm,
                "objects_routed": stats.per_query[query_id].objects_routed,
                "objects_per_second": stats.per_query[query_id].objects_per_second,
                "busy_seconds": stats.per_query[query_id].busy_seconds,
                "last_lag_seconds": stats.per_query[query_id].last_lag_seconds,
                "max_lag_seconds": stats.per_query[query_id].max_lag_seconds,
            }
            for query_id, spec in ((s.query_id, s) for s in specs)
        }
        final_results = service.results()
    return ServiceRunResult(
        executor=executor,
        shards=shards,
        chunk_size=chunk_size,
        n_queries=len(specs),
        objects_total=len(stream),
        wall_seconds=wall,
        object_query_pairs=len(stream) * len(specs),
        per_query=per_query,
        final_results=final_results,
    )


@dataclass
class RecoveryRunResult:
    """Outcome of one staged crash-and-resume experiment.

    ``full_replay_seconds`` is the cost of rebuilding the crash-point state
    from scratch (fresh service, chunks ``0..crash``); the resume path costs
    ``restore_seconds`` (load the last checkpoint) plus
    ``tail_replay_seconds`` (replay chunks ``checkpoint..crash``).  Both
    paths are asserted bit-identical at the crash point *and* after the
    remaining stream is played out.
    """

    chunk_size: int
    chunks_total: int
    crash_chunk_offset: int
    checkpoint_chunk_offset: int
    checkpoints_written: int
    full_replay_seconds: float
    restore_seconds: float
    tail_replay_seconds: float

    @property
    def resume_seconds(self) -> float:
        """Total time from crash to a serving-again state."""
        return self.restore_seconds + self.tail_replay_seconds

    @property
    def speedup_vs_full_replay(self) -> float:
        """How much faster resume is than replaying everything."""
        if self.resume_seconds <= 0.0:
            return float("inf")
        return self.full_replay_seconds / self.resume_seconds


def measure_recovery(
    specs,
    stream: list[SpatialObject],
    workdir,
    *,
    chunk_size: int = 512,
    checkpoint_every: int = 16,
    crash_fraction: float = 0.75,
    shards: int = 1,
    executor: str = "serial",
) -> RecoveryRunResult:
    """Stage a crash at ``crash_fraction`` of the stream and time recovery.

    The protocol: (1) serve the stream with checkpoints every
    ``checkpoint_every`` chunks into ``workdir`` and abandon the service at
    the crash chunk — everything not checkpointed dies with it; (2) time a
    full from-scratch replay to the crash point; (3) time
    :meth:`~repro.service.SurgeService.restore` plus the tail replay from
    the checkpoint offset.  Both recovered states must match bit for bit at
    the crash point and (after playing out the rest of the stream) at the
    end — recovery that answers fast but wrong does not count.
    """
    from repro.service import SurgeService
    from repro.state import CheckpointPolicy, has_checkpoint, read_manifest
    from repro.streams.sources import iter_chunks

    chunks = list(iter_chunks(stream, chunk_size))
    if len(chunks) < 2:
        raise ValueError("stream too short to stage a mid-stream crash")
    crash_offset = min(max(int(len(chunks) * crash_fraction), 1), len(chunks) - 1)

    def result_key(result):
        if result is None:
            return None
        return (
            result.score,
            result.region.as_tuple(),
            result.point.as_tuple(),
            result.fc,
            result.fp,
        )

    def snapshot_results(service):
        return {qid: result_key(res) for qid, res in service.results().items()}

    # (1) The doomed service: checkpoints while serving, dies at the crash.
    with SurgeService(
        specs,
        shards=shards,
        executor=executor,
        checkpoint_dir=workdir,
        checkpoint_policy=CheckpointPolicy(every_chunks=checkpoint_every),
    ) as doomed:
        for chunk in chunks[:crash_offset]:
            doomed.push_many(chunk)
    if not has_checkpoint(workdir):
        raise ValueError(
            f"no checkpoint was taken before the crash (crash at chunk "
            f"{crash_offset}, policy every {checkpoint_every} chunks); "
            f"lower checkpoint_every or use a longer stream"
        )
    manifest = read_manifest(workdir)
    checkpoint_offset = manifest.chunk_offset
    checkpoints_written = manifest.generation

    # (2) Full replay to the crash point (the no-durability alternative).
    with SurgeService(specs, shards=shards, executor=executor) as replayed:
        replayed.results()  # start workers outside the timed window
        started = time.perf_counter()
        for chunk in chunks[:crash_offset]:
            replayed.push_many(chunk)
        full_replay_seconds = time.perf_counter() - started
        replay_at_crash = snapshot_results(replayed)
        for chunk in chunks[crash_offset:]:
            replayed.push_many(chunk)
        replay_final = snapshot_results(replayed)

    # (3) Restore + tail replay (the durable path).
    started = time.perf_counter()
    restored = SurgeService.restore(workdir, executor=executor, attach=False)
    restore_seconds = time.perf_counter() - started
    with restored:
        started = time.perf_counter()
        for chunk in chunks[restored.chunk_offset : crash_offset]:
            restored.push_many(chunk)
        tail_replay_seconds = time.perf_counter() - started
        restored_at_crash = snapshot_results(restored)
        for chunk in chunks[crash_offset:]:
            restored.push_many(chunk)
        restored_final = snapshot_results(restored)

    if restored_at_crash != replay_at_crash:
        raise AssertionError(
            "restore + tail replay diverged from the full replay at the "
            "crash point — recovery is not bit-identical"
        )
    if restored_final != replay_final:
        raise AssertionError(
            "restore + tail replay diverged from the full replay at the "
            "end of the stream — recovery is not bit-identical"
        )
    return RecoveryRunResult(
        chunk_size=chunk_size,
        chunks_total=len(chunks),
        crash_chunk_offset=crash_offset,
        checkpoint_chunk_offset=checkpoint_offset,
        checkpoints_written=checkpoints_written,
        full_replay_seconds=full_replay_seconds,
        restore_seconds=restore_seconds,
        tail_replay_seconds=tail_replay_seconds,
    )


def service_scenario_grid(
    stream: list[SpatialObject],
    *,
    query_counts: Sequence[int] = (1, 8),
    shard_counts: Sequence[int] = (1, 2),
    executors: Sequence[str] = ("serial",),
    chunk_size: int = 512,
    **grid_options,
) -> list[ServiceRunResult]:
    """Sweep the multi-query scenario grid over one shared stream.

    The experiment-grid idiom: the cartesian product of (query count, shard
    count, executor) is materialised up front and every cell replays the
    same stream through :func:`run_service`, so cells are comparable.
    ``grid_options`` is forwarded to
    :func:`repro.service.make_query_grid` (base query size, keywords,
    algorithm, ...).  Returns one :class:`ServiceRunResult` per cell, in
    grid order.
    """
    from repro.service import make_query_grid

    results = []
    for n_queries, shards, executor in itertools.product(
        query_counts, shard_counts, executors
    ):
        specs = make_query_grid(n_queries, **grid_options)
        results.append(
            run_service(
                specs,
                stream,
                shards=shards,
                executor=executor,
                chunk_size=chunk_size,
            )
        )
    return results


def run_detectors(
    names: list[str],
    query: SurgeQuery,
    stream: list[SpatialObject],
    warmup: str = "stable",
    max_measured_objects: int | None = None,
    chunk_size: int | None = None,
    **detector_options,
) -> dict[str, RunResult]:
    """Run several detectors (by name) over the same stream."""
    results: dict[str, RunResult] = {}
    for name in names:
        results[name] = run_detector(
            name,
            query,
            stream,
            warmup=warmup,
            max_measured_objects=max_measured_objects,
            chunk_size=chunk_size,
            **detector_options,
        )
    return results
