"""The four workloads: what they build, what they time, how they are checked.

Every workload answers the same calls —

``generate(seed)``            inputs, a pure function of the seed
``setup(inputs, dir, log)``   build the system and warm the windows up
``measure(system, ...)``      the timed section (time-boxed or fixed work)
``layers(system, m, log)``    per-layer numbers of a traced pass
``verify(inputs, m)``         correctness of what the timed section produced
``teardown(system)``          stop and release everything ``setup`` started

— so ``run.py`` can treat them alike.  ``log`` is a
:class:`~bench.probes.SpanLog` on a traced pass and ``None`` on the untraced
pass that yields the end-to-end metrics; an untraced pass constructs the
program exactly as a user would (no backend argument, no tracer).

Why these four, which layer each stresses and which it bypasses is recorded
in ``BENCHMARK.json`` (one line each) and, at length, in ``bench/README.md``.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, sleep
from typing import Any, Callable

from bench import inputs as gen
from bench import verify
from bench.metrics import WHY
from bench.probes import (
    SpanLog,
    TimingSweepBackend,
    percentile,
    pid_cpu_seconds,
    pid_rss_mb,
    self_time_by_name,
)

#: Warm-up is ingested in chunks of this many objects (it lands in setup_s).
WARM_CHUNK = 1024

#: Environment variables that would silently change what is measured.
SCRUBBED_ENV = ("REPRO_SWEEP_BACKEND", "REPRO_SWEEP_CROSSOVER", "REPRO_TRACE")

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Inputs:
    objects: list  # arrival order
    specs: list
    sha256: str
    rss_mb: float  # resident set once the inputs exist


@dataclass
class Measurement:
    """What one timed section produced."""

    objects: int = 0  # objects offered in the timed section
    wall_s: float = 0.0  # wall seconds throughput_obj_s divides by
    throughput_objects: int = 0  # objects throughput_obj_s counts
    cpu_s: float = 0.0
    lags_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)  # for verify
    counts: dict = field(default_factory=dict)  # at the count prefix
    extra: dict = field(default_factory=dict)  # per-layer raw material


class LayerReport:
    """Per-layer values; a probe that cannot be read degrades, never raises.

    A renamed stat, a missing stage or an absent attribute puts the metric
    under ``missing`` instead of failing the run, so refactors of the
    program's counters cannot break the gate (end-to-end metrics never read
    a program counter at all).
    """

    PROBE_ERRORS = (
        AttributeError, KeyError, IndexError, TypeError, ValueError,
        ZeroDivisionError, OSError, ImportError,
    )

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.missing: list[str] = []

    def put(self, name: str, read: Callable[[], Any]) -> None:
        try:
            self.values[name] = float(read())
        except self.PROBE_ERRORS:
            self.missing.append(name)


class Workload:
    name = ""
    chunk_size = 64
    warm_objects = 4000
    stream_objects = 0
    #: Measured chunks after which the count-type per-layer metrics are
    #: read, so they repeat exactly for a seed however long the run lasts.
    count_prefix = 0

    def params(self) -> dict:
        return {
            "chunk_size": self.chunk_size,
            "warm_objects": self.warm_objects,
            "stream_objects": self.stream_objects,
            "count_prefix_chunks": self.count_prefix,
        }

    @property
    def why(self) -> str:
        """Why the workload exists (one line, kept in BENCHMARK.json)."""
        return WHY[self.name]

    def peak_rss_mb(self, system) -> float:
        """Peak resident set of the process hosting the system under test."""
        return pid_rss_mb(os.getpid(), peak=True)


# ======================================================================
# A, B — one exact detector, closed-loop replay by one caller
# ======================================================================
class ExactWorkload(Workload):
    def __init__(
        self, name, layout, window_length, height, chunk_size, stream_objects,
        count_prefix,
    ):
        self.name = name
        self.layout = layout
        self.query = gen.exact_query(window_length)
        self.height = height
        # One object per stream second: both windows full before timing.
        self.warm_objects = int(2 * window_length)
        self.chunk_size = chunk_size
        self.stream_objects = stream_objects
        self.count_prefix = count_prefix

    def params(self) -> dict:
        return dict(
            super().params(), layout=self.layout, detector="ccs",
            backend="(none passed: shipped default)", rect=[1.0, 1.0],
            window_length=self.query.window_length, alpha=gen.ALPHA,
            extent=[gen.EXTENT, self.height],
        )

    def generate(self, seed: int) -> Inputs:
        objects = gen.object_stream(
            seed, self.stream_objects, layout=self.layout, height=self.height
        )
        return Inputs(objects, [], gen.input_sha256(objects), pid_rss_mb(os.getpid(), peak=False))

    def setup(self, inputs: Inputs, workdir: Path, log: SpanLog | None):
        from repro import SurgeMonitor
        from repro.core.sweep_backends import get_backend

        sweeper = None
        if log is None:
            monitor = SurgeMonitor(self.query, "ccs")
        else:
            sweeper = TimingSweepBackend(get_backend("auto"), log)
            monitor = SurgeMonitor(self.query, "ccs", backend=sweeper)
        for chunk in gen.chunked(inputs.objects[: self.warm_objects], WARM_CHUNK):
            monitor.push_many(chunk)
        chunks = gen.chunked(inputs.objects[self.warm_objects :], self.chunk_size)
        return {"monitor": monitor, "sweeper": sweeper, "chunks": chunks}

    def _counts(self, system) -> dict:
        """Raw program counters (read on traced passes only)."""
        report = LayerReport()
        detector = system["monitor"].detector
        for name in ("events_processed", "cells_searched", "rectangles_swept",
                     "events_triggering_search"):
            report.put(name, lambda name=name: getattr(detector.stats, name))
        report.put("live_cells", lambda: detector.live_cell_count)
        report.values["sweep_calls"] = len(system["sweeper"].calls)
        return report.values

    def measure(self, system, inputs, *, seconds=None, limit=None, log=None):
        monitor = system["monitor"]
        sweeper = system["sweeper"]
        chunks = system["chunks"]
        max_chunks = len(chunks) if limit is None else min(len(chunks), limit // self.chunk_size)
        m = Measurement()
        results = []
        lags = m.lags_s
        window_events = 0
        if log is not None:
            m.extra["counts_start"] = self._counts(system)
        cpu0 = process_time()
        t0 = perf_counter()
        for index in range(max_chunks):
            chunk = chunks[index]
            if log is None:
                started = perf_counter()
                result = monitor.push_many(chunk)
                ended = perf_counter()
            else:
                root = log.open("chunk", -1, index)
                started = log.spans[root][1]
                span = log.open("streams.windows", root, index)
                batch = monitor.ingest_batch(chunk)
                log.close(span)
                window_events += len(batch)
                span = log.open("core.detector", root, index)
                sweeper.parent, sweeper.chunk = span, index
                result = monitor.apply_batch(batch)
                log.close(span)
                ended = log.close(root)
                if index + 1 == self.count_prefix:
                    m.counts = dict(
                        self._counts(system), window_events=window_events, chunks=index + 1
                    )
            lags.append(ended - started)
            results.append(result)
            if seconds is not None and ended - t0 >= seconds:
                break
        m.wall_s = perf_counter() - t0
        m.cpu_s = process_time() - cpu0
        done = len(results)
        m.objects = m.throughput_objects = sum(len(chunks[i]) for i in range(done))
        m.attempted = done
        m.failed = sum(1 for result in results if result is None)
        m.outputs = {"results": results}
        return m

    def layers(self, system, inputs, m: Measurement, log: SpanLog, workdir) -> LayerReport:
        report = LayerReport()
        own = self_time_by_name(log.spans)
        sweeper = system["sweeper"]
        report.put("streams.windows.busy_s", lambda: log.total("streams.windows"))
        report.put("streams.windows.events", lambda: m.counts["window_events"])
        report.put("streams.windows.calls", lambda: m.counts["chunks"])  # one per chunk
        report.put("core.detector.busy_s", lambda: log.total("core.detector"))
        report.put("core.detector.self_s", lambda: own["core.detector"])
        start, at = m.extra["counts_start"], m.counts

        def delta(key):
            return at[key] - start[key]

        report.put("core.detector.events_processed", lambda: delta("events_processed"))
        report.put("core.detector.cells_searched", lambda: delta("cells_searched"))
        report.put("core.detector.rects_swept", lambda: delta("rectangles_swept"))
        report.put(
            "core.detector.search_trigger_ratio",
            lambda: delta("events_triggering_search") / delta("events_processed"),
        )
        report.put("core.detector.live_cells", lambda: at["live_cells"])
        report.put("core.sweep_backends.calls", lambda: delta("sweep_calls"))
        report.put("core.sweep_backends.busy_s", lambda: log.total("core.sweep_backends"))
        first = int(start["sweep_calls"])  # sweeps issued by the warm-up
        sizes = [rects for rects, _ in sweeper.calls[first:]]
        report.put(
            "core.sweep_backends.us_per_rect",
            lambda: 1e6 * log.total("core.sweep_backends") / sum(sizes),
        )
        report.put("core.sweep_backends.rects_per_call_p50", lambda: percentile(sizes, 0.5))
        report.put("core.sweep_backends.rects_per_call_p95", lambda: percentile(sizes, 0.95))
        report.put(
            "core.sweep_backends.numpy_share",
            lambda: sum(1 for _, kernel in sweeper.calls[first:] if kernel == "numpy")
            / len(sizes),
        )
        report.put("bench.span_coverage", lambda: log.total("chunk") / m.wall_s)
        return report

    def verify(self, inputs: Inputs, m: Measurement) -> list[str]:
        results = m.outputs["results"]
        if not results:
            return ["no chunk was processed"]
        picks = sorted({round(k * (len(results) - 1) / 7) for k in range(8)})
        boundaries = [
            (self.warm_objects + (index + 1) * self.chunk_size, results[index])
            for index in picks
        ]
        return verify.check_exact(inputs.objects, self.query, boundaries)

    def teardown(self, system) -> None:
        system.clear()


# ======================================================================
# C — 256 approximate queries behind the multi-query service
# ======================================================================
class FanoutWorkload(Workload):
    name = "service_fanout"
    chunk_size = 64
    stream_objects = 260_000
    count_prefix = 256
    max_lateness = 4.0
    checkpoint_every = 256
    #: Chunks replayed under the process executor for the informational ratio.
    executor_probe_chunks = 96
    STAGES = ("ingest.reorder", "route.bucket", "window.observe", "settle",
              "bus.publish", "checkpoint")

    def params(self) -> dict:
        return dict(
            super().params(), queries=256, distinct_specs=16, tenants=16,
            executor="serial", max_lateness=self.max_lateness,
            checkpoint_every_chunks=self.checkpoint_every, layout="hotspot",
            keywords="zipf over 8 words", displaced_fraction=0.05,
            max_displacement_s=4.0, alpha=gen.ALPHA,
        )

    def generate(self, seed: int) -> Inputs:
        ordered = gen.object_stream(
            seed, self.stream_objects, layout="hotspot", keywords=True
        )
        arrivals = gen.displace(ordered, seed, max_shift=self.max_lateness)
        specs = gen.fanout_specs()
        return Inputs(arrivals, specs, gen.input_sha256(arrivals, specs), pid_rss_mb(os.getpid(), peak=False))

    def _service(self, specs, directory, tracer, **overrides):
        from repro import CheckpointPolicy, SurgeService

        options = dict(
            executor="serial",
            max_lateness=self.max_lateness,
            checkpoint_dir=directory,
            checkpoint_policy=CheckpointPolicy(every_chunks=self.checkpoint_every),
            tracer=tracer,
        )
        options.update(overrides)
        return SurgeService(specs, **options)

    def setup(self, inputs: Inputs, workdir: Path, log: SpanLog | None):
        tracer = None
        if log is not None:
            from repro.obs.tracer import Tracer

            tracer = Tracer(ring_size=1 << 21)
        directory = workdir / "checkpoints"
        shutil.rmtree(directory, ignore_errors=True)
        service = self._service(inputs.specs, directory, tracer)
        for _ in service.feed(inputs.objects[: self.warm_objects], WARM_CHUNK):
            pass
        return {
            "service": service,
            "directory": directory,
            "warm_chunks": service.chunk_offset,
            "stages_start": service.stage_stats(),
        }

    def _counts(self, service) -> dict:
        report = LayerReport()
        report.put("reordered", lambda: service.ingest_stats().reordered)
        report.put("late_dropped", lambda: service.ingest_stats().late_dropped)
        report.put("peak_buffered", lambda: service.ingest_stats().peak_buffered)
        report.put(
            "updates",
            lambda: sum(s.chunks_processed for s in service.stats().per_query.values()),
        )
        report.put(
            "dropped",
            lambda: sum(s.dropped_results for s in service.stats().per_query.values()),
        )
        stages = service.stage_stats()
        report.put("checkpoints", lambda: stages.get("checkpoint", {"count": 0})["count"])
        report.put("window_calls", lambda: stages["window.observe"]["count"])
        return report.values

    def measure(self, system, inputs, *, seconds=None, limit=None, log=None):
        service = system["service"]
        measured = inputs.objects[self.warm_objects :]
        if limit is not None:
            measured = measured[:limit]
        chunk_size = self.chunk_size
        n_queries = len(inputs.specs)
        m = Measurement()
        lags = m.lags_s
        state = {"offered": 0, "last": 0.0}

        def arrivals():
            for index, obj in enumerate(measured):
                if (
                    seconds is not None
                    and index % chunk_size == 0
                    and perf_counter() - t0 >= seconds
                ):
                    return
                state["offered"] = index + 1
                state["last"] = perf_counter()
                yield obj

        chunks = 0
        final: dict = {}

        def receive(updates):
            nonlocal chunks
            now = perf_counter()
            lags.append(now - state["last"])
            m.attempted += n_queries
            m.failed += n_queries - len(updates)
            for update in updates:
                if update.result is None:
                    m.failed += 1
            if log is not None:
                log.add("service.run", state.get("mark", t0), now, -1, chunks)
                state["mark"] = now
                if chunks + 1 == self.count_prefix:
                    m.counts = self._counts(service)
            chunks += 1
            if updates:
                final["updates"] = updates

        if log is not None:
            m.extra["counts_start"] = self._counts(service)
        cpu0 = process_time()
        t0 = perf_counter()
        # feed + flush_pending is what SurgeService.run does for a whole
        # stream; spelt out because the warm-up used another chunk size.
        for updates in service.feed(arrivals(), chunk_size):
            receive(updates)
        for updates in service.flush_pending(chunk_size):
            receive(updates)
        m.wall_s = perf_counter() - t0
        m.cpu_s = process_time() - cpu0
        m.objects = m.throughput_objects = state["offered"]
        m.outputs = {
            "final": {u.query_id: u.result for u in final.get("updates", ())},
            "warm_chunks": system["warm_chunks"],
        }
        return m

    def layers(self, system, inputs, m: Measurement, log: SpanLog, workdir) -> LayerReport:
        from repro import SurgeService

        report = LayerReport()
        service = system["service"]
        stages_now, stages_start = service.stage_stats(), system["stages_start"]

        def seconds(name: str) -> float:  # over the timed section only
            before = stages_start.get(name, {"total_seconds": 0.0})
            return stages_now[name]["total_seconds"] - before["total_seconds"]

        stage = lambda name: (lambda: seconds(name))  # noqa: E731
        report.put("streams.windows.busy_s", stage("window.observe"))
        report.put("streams.watermark.busy_s", stage("ingest.reorder"))
        start, at = m.extra["counts_start"], m.counts
        for metric, key in (
            ("streams.watermark.reordered", "reordered"),
            ("streams.watermark.late_dropped", "late_dropped"),
            ("service.bus.updates", "updates"),
            ("service.bus.dropped", "dropped"),
            ("streams.windows.calls", "window_calls"),
            ("state.checkpoint.count", "checkpoints"),
        ):
            report.put(metric, lambda key=key: at[key] - start[key])
        report.put("streams.watermark.peak_buffered", lambda: at["peak_buffered"])
        report.put("core.detector.busy_s", stage("settle"))
        report.put("core.detector.self_s", stage("settle"))
        report.put("service.route.busy_s", stage("route.bucket"))
        report.put("service.bus.busy_s", stage("bus.publish"))
        report.put(
            "service.dispatch.self_s",
            lambda: m.wall_s
            - sum(seconds(name) for name in self.STAGES if name in stages_now),
        )
        report.put("service.pairs_per_s", lambda: service.stats().pairs_per_second)
        report.put("state.checkpoint.busy_s", stage("checkpoint"))

        directory = system["directory"]
        service.checkpoint()

        def newest_snapshot_bytes():
            files = sorted(directory.glob("*.ckpt"), key=lambda p: p.name.split(".")[-2])
            newest = files[-1].name.split(".")[-2]
            return sum(p.stat().st_size for p in files if p.name.split(".")[-2] == newest)

        report.put("state.snapshot_bytes", newest_snapshot_bytes)
        report.put("state.wal_bytes", lambda: (directory / "wal.log").stat().st_size)

        def timed_restore():
            started = perf_counter()
            restored = SurgeService.restore(directory, attach=False)
            elapsed = perf_counter() - started
            try:
                if restored.results() != service.results():
                    raise ValueError("restored results differ from the live service")
            finally:
                restored.close()
            return elapsed

        report.put("state.restore_s", timed_restore)
        self._executor_probe(inputs, workdir, report)
        report.put("bench.span_coverage", lambda: log.total("service.run") / m.wall_s)
        m.extra["program_spans"] = service.tracer.recorder.spans()
        return report

    def _executor_probe(self, inputs: Inputs, workdir: Path, report: LayerReport) -> None:
        """Informational: the same prefix under ``executor="process"``.

        Two shard processes on two shared cores cannot beat serial here, so
        the ratio is never gated; ``identical`` is the part that must hold.
        """
        prefix = inputs.objects[
            : self.warm_objects + self.executor_probe_chunks * self.chunk_size
        ]
        outcome = {}
        for label, options in (
            ("serial", {}),
            ("process", {"executor": "process", "shards": 2}),
        ):
            try:
                service = self._service(inputs.specs, None, None, **options)
            except LayerReport.PROBE_ERRORS + (RuntimeError,):
                break
            try:
                for _ in service.feed(prefix[: self.warm_objects], WARM_CHUNK):
                    pass
                started = perf_counter()
                for _ in service.feed(prefix[self.warm_objects :], self.chunk_size):
                    pass
                outcome[label] = (perf_counter() - started, service.results())
            finally:
                service.close()
        report.put(
            "service.executor.process_ratio",
            lambda: outcome["process"][0] / outcome["serial"][0],
        )
        report.put(
            "service.executor.process_identical",
            lambda: outcome["process"][1] == outcome["serial"][1],
        )

    def verify(self, inputs: Inputs, m: Measurement) -> list[str]:
        final = m.outputs["final"]
        offered = inputs.objects[: self.warm_objects + m.objects]
        ordered = sorted(offered, key=lambda obj: (obj.timestamp, obj.object_id))
        problems = []
        leaders = {}
        for spec in inputs.specs:
            if spec.query_id not in final:
                problems.append(f"query {spec.query_id}: no final update")
                continue
            key = (spec.keyword, spec.query, spec.algorithm)
            leader = leaders.setdefault(key, spec)
            if final[spec.query_id] != final[leader.query_id]:
                problems.append(
                    f"query {spec.query_id}: result differs from tenant "
                    f"{leader.query_id} of the same spec"
                )
        by_route = verify.routed_by_keyword(ordered, inputs.specs)
        for spec in leaders.values():
            # The bound costs a full sweep: checked on the 1x1 specs, which
            # cover both algorithms and both windows on every route.
            problems += verify.check_approximate(
                spec, by_route[spec.keyword], final.get(spec.query_id),
                bound=spec.query.rect_width == 1.0,
            )
        # Bit-identity of the whole service path (reorder, chunker, routing,
        # shared windows, checkpoints) against an independent monitor, on the
        # sparsest route: a full replay of every route would cost as much as
        # the timed section itself.
        warm = m.outputs["warm_chunks"] * WARM_CHUNK
        chunks = gen.chunked(ordered[:warm], WARM_CHUNK) + gen.chunked(
            ordered[warm:], self.chunk_size
        )
        for spec in leaders.values():
            if spec.keyword == "weather" and spec.query.window_length == 1000.0:
                reference = verify.replay_monitor(spec, chunks)
                if reference != final.get(spec.query_id):
                    problems.append(
                        f"query {spec.query_id}: not bit-identical to an "
                        f"independent monitor over its substream"
                    )
        return problems

    def teardown(self, system) -> None:
        system["service"].close()
        shutil.rmtree(system["directory"], ignore_errors=True)
        system.clear()


# ======================================================================
# D — the deployed form: a server child process, two client connections
# ======================================================================
class FrameCollector(threading.Thread):
    """The subscriber: reads pushed result frames and stamps their arrival."""

    def __init__(self, client) -> None:
        super().__init__(name="bench-subscriber", daemon=True)
        self._client = client
        #: ``(received at, chunk_index, query_id, result record)``
        self.frames: list[tuple] = []
        self.error: BaseException | None = None
        self._target = float("inf")
        self._reached = threading.Event()

    def run(self) -> None:
        frames = self.frames
        recv = self._client.recv
        try:
            while True:
                frame = recv()
                if frame.get("type") == "result":
                    frames.append(
                        (perf_counter(), frame["chunk_index"], frame["query_id"],
                         frame["result"])
                    )
                    if len(frames) >= self._target:
                        self._reached.set()
        except OSError:
            # End of stream: the drained server closed its side (teardown).
            return
        except Exception as exc:  # thread boundary: recorded, reported by wait_for
            self.error = exc
            self._reached.set()

    def wait_for(self, count: int, timeout: float) -> bool:
        """Block until ``count`` frames have arrived in total."""
        self._reached.clear()
        self._target = count
        if len(self.frames) < count:
            self._reached.wait(timeout)
        self._target = float("inf")
        if self.error is not None:
            raise RuntimeError(f"subscriber failed: {self.error!r}")
        return len(self.frames) >= count


class WireWorkload(Workload):
    name = "serve_wire"
    chunk_size = 64
    warm_objects = 8000
    stream_objects = 200_000
    spacing = 0.01
    paced_rate = 4000.0
    #: Share of ``--seconds`` spent in the open-loop ``paced`` phase; the rest
    #: is the closed-loop ``saturate`` phase.
    paced_share = 0.6
    #: Paced chunks checked bit-for-bit against the in-process reference.
    reference_chunks = 128
    frame_timeout_s = 10.0

    def params(self) -> dict:
        return dict(
            super().params(), queries=16, algorithm="gaps", spacing_s=self.spacing,
            windows_s=[20.0, 40.0], paced_rate_obj_s=self.paced_rate,
            paced_share=self.paced_share, connections=2,
            cpu_pinning="server child on the last CPU, load generator on the others",
            subscribe="queries=None, maxsize=65536",
            server="python -m repro.cli serve --listen 127.0.0.1:0 --chunk-size 64",
        )

    def generate(self, seed: int) -> Inputs:
        objects = gen.object_stream(
            seed, self.stream_objects, layout="hotspot", spacing=self.spacing,
            keywords=True,
        )
        specs = gen.wire_specs()
        return Inputs(objects, specs, gen.input_sha256(objects, specs), pid_rss_mb(os.getpid(), peak=False))

    # ------------------------------------------------------------------
    def setup(self, inputs: Inputs, workdir: Path, log: SpanLog | None):
        from repro.server.client import ServerClient

        workdir.mkdir(parents=True, exist_ok=True)
        queries = workdir / "queries.json"
        queries.write_text(json.dumps([spec.to_dict() for spec in inputs.specs]))
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        env["PYTHONPATH"] = str(SRC_DIR)
        system: dict = {"frames_expected": 0}
        stderr = system["stderr"] = open(workdir / "server.stderr", "w")
        # The server gets the last CPU to itself and the load generator the
        # rest: unpinned, the server's GIL-bound threads bounce between the two
        # cores and the same seed measures 8.0k-9.3k objects/s (pinned: +-2%).
        # The child inherits the affinity it is forked with.
        cpus = sorted(os.sched_getaffinity(0))
        system["affinity"] = cpus
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[-1]})
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--listen", "127.0.0.1:0",
                 "--queries", str(queries), "--chunk-size", str(self.chunk_size)],
                stdout=subprocess.PIPE, stderr=stderr, env=env, text=True,
            )
        finally:
            if len(cpus) >= 2:
                os.sched_setaffinity(0, set(cpus[:-1]))
        system["proc"] = proc
        try:
            port = self._read_port(proc)
            feeder = system["feeder"] = ServerClient("127.0.0.1", port)
            subscriber = system["subscriber"] = ServerClient(
                "127.0.0.1", port, timeout=None
            )
            subscriber.subscribe(queries=None, maxsize=65536)
            collector = system["collector"] = FrameCollector(subscriber)
            collector.start()
            warm = inputs.objects[: self.warm_objects]
            for start in range(0, len(warm), WARM_CHUNK):
                ack = feeder.ingest(warm[start : start + WARM_CHUNK])
            system["frames_expected"] = ack["chunk_index"] * len(inputs.specs)
            if not collector.wait_for(system["frames_expected"], self.frame_timeout_s):
                raise RuntimeError("warm-up result frames never arrived")
            system["batches"] = gen.chunked(
                inputs.objects[self.warm_objects :], self.chunk_size
            )
            system["base_chunk"] = ack["chunk_index"]
        except BaseException:
            self.teardown(system)
            raise
        return system

    @staticmethod
    def _read_port(proc) -> int:
        deadline = perf_counter() + 60.0
        while perf_counter() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                return int(line.split()[2].rsplit(":", 1)[1])
        raise RuntimeError("the server child never announced its port")

    # ------------------------------------------------------------------
    def measure(self, system, inputs, *, seconds=None, limit=None, log=None):
        """``paced`` then ``saturate``.

        Time-boxed (``seconds``): the paced phase offers its schedule for
        ``paced_share`` of the time, the saturate phase sends closed-loop
        for the rest.  Fixed work (``limit`` = ``(paced, saturate)`` batch
        counts): the replay of a traced pass.
        """
        from repro.server.protocol import ServerError

        feeder = system["feeder"]
        collector: FrameCollector = system["collector"]
        batches = system["batches"]
        n_queries = len(inputs.specs)
        pid = system["proc"].pid
        size = self.chunk_size
        if limit is None:
            n_paced = int(self.paced_rate * seconds * self.paced_share / size)
            saturate_budget = seconds * (1.0 - self.paced_share)
            n_saturate = len(batches) - n_paced
        else:
            n_paced, n_saturate = limit
            saturate_budget = None
        m = Measurement()
        rtts: list[float] = []
        late: list[float] = []
        refused = 0

        def send(index: int) -> None:
            nonlocal refused
            started = perf_counter()
            try:
                feeder.ingest(batches[index])
            except ServerError:
                refused += 1
                return
            ended = perf_counter()
            rtts.append(ended - started)
            if log is not None:
                log.add("server.ack", started, ended, -1, index)

        cpu0 = pid_cpu_seconds(pid)
        # ---- paced: open loop -------------------------------------------
        schedule = gen.paced_schedule(n_paced, size, self.paced_rate)
        frames_before = system["frames_expected"]
        phase_start = perf_counter() + 0.02
        due_times = []
        for index in range(n_paced):
            due = phase_start + schedule[index]
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            late.append(max(0.0, perf_counter() - due))
            due_times.append(due)
            send(index)
        owed = frames_before + (n_paced - refused) * n_queries
        backlog_end = owed - len(collector.frames)
        complete = collector.wait_for(owed, self.frame_timeout_s)
        paced_refused = refused
        # Between the phases, so its counts depend on the schedule alone.
        stats = feeder.stats()
        # ---- saturate: closed loop --------------------------------------
        sat_start = perf_counter()
        sent = 0
        for index in range(n_paced, n_paced + n_saturate):
            send(index)
            sent += 1
            if saturate_budget is not None and perf_counter() - sat_start >= saturate_budget:
                break
        owed += (sent - (refused - paced_refused)) * n_queries
        complete = collector.wait_for(owed, self.frame_timeout_s) and complete
        frames = list(collector.frames)
        sat_end = max((f[0] for f in frames[frames_before:owed]), default=perf_counter())
        m.cpu_s = pid_cpu_seconds(pid) - cpu0
        system["frames_expected"] = len(frames)

        # ---- accounting --------------------------------------------------
        base = system["base_chunk"]
        by_chunk: dict[int, list] = {}
        for frame in frames[frames_before:]:
            by_chunk.setdefault(frame[1] - base, []).append(frame)
        sent_batches = n_paced + sent
        m.attempted = sent_batches * n_queries
        received_ok = sum(
            1 for group in by_chunk.values() for frame in group if frame[3] is not None
        )
        m.failed = m.attempted - received_ok
        frame_lags = []
        for index in range(n_paced):
            group = by_chunk.get(index, ())
            if len(group) == n_queries:
                m.lags_s.append(max(f[0] for f in group) - due_times[index])
            frame_lags.extend(f[0] - due_times[index] for f in group)
        m.objects = sent_batches * size
        m.throughput_objects = sent * size
        m.wall_s = sat_end - sat_start
        m.outputs = {
            "by_chunk": by_chunk, "n_paced": n_paced, "sent_batches": sent_batches,
            "complete": complete, "base_chunk": base,
        }
        m.extra = {
            "rtts": rtts, "late": late, "frame_lags": frame_lags,
            "backlog_end": backlog_end, "stats": stats, "limit": (n_paced, sent),
            "refused": refused, "saturate_ack_s": sum(rtts[n_paced - paced_refused :]),
        }
        system["base_chunk"] = base + sent_batches
        system["batches"] = batches[sent_batches:]
        return m

    def peak_rss_mb(self, system) -> float:
        return pid_rss_mb(system["proc"].pid, peak=True)

    # ------------------------------------------------------------------
    def layers(self, system, inputs, m: Measurement, log: SpanLog, workdir) -> LayerReport:
        report = LayerReport()
        extra = m.extra
        stats = extra["stats"]
        report.put("server.ack_rtt_p50_ms", lambda: 1e3 * percentile(extra["rtts"], 0.5))
        report.put("server.ack_rtt_p95_ms", lambda: 1e3 * percentile(extra["rtts"], 0.95))
        report.put("server.lag_p99_ms", lambda: 1e3 * percentile(extra["frame_lags"], 0.99))
        report.put("server.backlog_end_frames", lambda: extra["backlog_end"])
        report.put("server.frames_in", lambda: stats["server"]["frames_in_total"])
        report.put("server.frames_out", lambda: stats["server"]["frames_out_total"])
        report.put("server.ingest_rejected", lambda: stats["server"]["ingest_rejected_total"])
        report.put(
            "server.sub_dropped", lambda: sum(s["dropped"] for s in stats["subscriptions"])
        )
        report.put(
            "server.sub_peak_depth",
            lambda: max(s["peak_depth"] for s in stats["subscriptions"]),
        )
        report.put("server.cpu_s", lambda: m.cpu_s)
        report.put("bench.gen_late_p95_ms", lambda: 1e3 * percentile(extra["late"], 0.95))
        # The paced phase sleeps between batches by design, so coverage is
        # taken over the closed-loop phase: ack spans against its wall.
        report.put("bench.span_coverage", lambda: extra["saturate_ack_s"] / m.wall_s)
        self._protocol_probe(inputs, m, report)
        return report

    def _protocol_probe(self, inputs: Inputs, m: Measurement, report: LayerReport) -> None:
        """Codec cost on the workload's own batches and updates, standalone."""
        size = self.chunk_size
        sample = gen.chunked(
            inputs.objects[self.warm_objects : self.warm_objects + 64 * size], size
        )
        n_objects = 64 * size

        def codec() -> dict:
            from repro.server.protocol import (
                LENGTH_STRUCT, decode_frame_body, decode_object, encode_frame,
                encode_object,
            )

            started = perf_counter()
            bodies = [
                encode_frame(
                    {"type": "ingest", "objects": [encode_object(obj) for obj in batch]}
                )
                for batch in sample
            ]
            encoded = perf_counter()
            for body in bodies:
                frame = decode_frame_body(body[LENGTH_STRUCT.size :])
                [decode_object(record) for record in frame["objects"]]
            decoded = perf_counter()
            return {
                "encode_us_per_obj": 1e6 * (encoded - started) / n_objects,
                "decode_us_per_obj": 1e6 * (decoded - encoded) / n_objects,
                "bytes_per_obj": sum(len(body) for body in bodies) / n_objects,
            }

        def result_frame_bytes() -> float:
            from repro.server.protocol import decode_result, encode_frame, encode_update
            from repro.service.bus import QueryUpdate

            updates = [
                QueryUpdate(frame[2], frame[1], decode_result(frame[3]), size, 0.001)
                for group in list(m.outputs["by_chunk"].values())[:64]
                for frame in group
            ]
            return sum(len(encode_frame(encode_update(u))) for u in updates) / len(updates)

        try:
            measured = codec()
        except LayerReport.PROBE_ERRORS:
            measured = {}
        for key in ("encode_us_per_obj", "decode_us_per_obj", "bytes_per_obj"):
            report.put(f"server.protocol.{key}", lambda key=key: measured[key])
        report.put("server.protocol.result_frame_bytes", result_frame_bytes)

    # ------------------------------------------------------------------
    def verify(self, inputs: Inputs, m: Measurement) -> list[str]:
        from repro import SurgeService
        from repro.server.protocol import encode_result

        out = m.outputs
        by_chunk = out["by_chunk"]
        n_queries = len(inputs.specs)
        problems = []
        if not out["complete"]:
            problems.append("result frames still missing when the wait timed out")
        short = [i for i in range(out["sent_batches"]) if len(by_chunk.get(i, ())) != n_queries]
        if short:
            problems.append(
                f"{len(short)} chunks did not yield one frame per query "
                f"(first: chunk {short[0]})"
            )
        for sub in m.extra["stats"]["subscriptions"]:
            if sub["offered"] != sub["delivered"] + sub["dropped"] + sub["depth"]:
                problems.append(f"subscription {sub['name']}: counters do not conserve")
            if sub["dropped"]:
                problems.append(f"subscription {sub['name']}: dropped {sub['dropped']}")
        if m.extra["refused"]:
            problems.append(f"{m.extra['refused']} ingest batches refused")

        # Wire results equal an in-process serial reference, bit for bit,
        # over the first paced chunks (JSON floats round-trip exactly).
        first_chunk = out["base_chunk"] * self.chunk_size
        count = min(self.reference_chunks, out["n_paced"])
        service = SurgeService(inputs.specs, executor="serial")
        try:
            for _ in service.feed(inputs.objects[:first_chunk], self.chunk_size):
                pass
            measured = inputs.objects[first_chunk : first_chunk + count * self.chunk_size]
            for index, updates in enumerate(service.feed(measured, self.chunk_size)):
                got = {frame[2]: frame[3] for frame in by_chunk.get(index, ())}
                for update in updates:
                    if got.get(update.query_id) != encode_result(update.result):
                        problems.append(
                            f"chunk {index} query {update.query_id}: wire result "
                            f"differs from the in-process reference"
                        )
        finally:
            service.close()

        # The last frames, against from-scratch monitors over the live windows.
        last = by_chunk.get(out["sent_batches"] - 1, ())
        sent = inputs.objects[: first_chunk + out["sent_batches"] * self.chunk_size]
        by_route = verify.routed_by_keyword(sent, inputs.specs)
        for spec in inputs.specs:
            record = next((f[3] for f in last if f[2] == spec.query_id), None)
            fresh = verify.fresh_result(spec, by_route[spec.keyword])
            if record is None or fresh is None or not verify.close(
                record["score"], fresh.score
            ):
                problems.append(
                    f"query {spec.query_id}: final wire score "
                    f"{None if record is None else record['score']!r} vs "
                    f"from-scratch {None if fresh is None else fresh.score!r}"
                )
        return problems[:20]

    # ------------------------------------------------------------------
    def teardown(self, system) -> None:
        proc = system.get("proc")
        feeder = system.get("feeder")
        if feeder is not None and proc is not None and proc.poll() is None:
            try:
                feeder.drain()
            except Exception:  # noqa: BLE001 - teardown must reach the kill below
                pass
        if proc is not None:
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
        # The server closing its side is what ends the subscriber thread.
        collector = system.get("collector")
        if collector is not None:
            collector.join(timeout=5.0)
        for key in ("feeder", "subscriber"):
            client = system.get(key)
            if client is not None:
                client.close()
        if system.get("stderr") is not None:
            system["stderr"].close()
        if system.get("affinity"):
            os.sched_setaffinity(0, set(system["affinity"]))
        system.clear()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ExactWorkload(
            "exact_hotspot",
            layout="hotspot", window_length=2000.0, height=gen.EXTENT,
            chunk_size=128, stream_objects=90_000, count_prefix=64,
        ),
        ExactWorkload(
            "exact_uniform",
            # Half the window on half the area: the same density, so the same
            # ~200-rectangle sweeps, but twice the pruning regimes per run --
            # at 2000 s on 8x8 ten seeds spread 8-10%, here under 4%.
            layout="uniform", window_length=1000.0, height=gen.EXTENT / 2,
            chunk_size=48, stream_objects=40_000, count_prefix=48,
        ),
        FanoutWorkload(),
        WireWorkload(),
    )
}
