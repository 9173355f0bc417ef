"""Command-line interface for the SURGE reproduction.

Three subcommands cover the most common standalone uses of the library:

``run``
    Replay a recorded stream (CSV or JSON Lines, see
    :mod:`repro.datasets.io`) through any detector and print the bursty
    region(s) at a configurable reporting interval.

``serve``
    Replay a stream through the multi-query service
    (:class:`repro.service.SurgeService`): N registered queries from a
    ``queries.json`` file, keyword routing, sharded execution with a
    selectable backend, per-query results at a reporting interval.
    With ``--listen HOST:PORT`` (and no stream file) the service is
    served over TCP instead — length-prefixed JSON frames for ingest /
    register / subscribe, an optional ``--metrics HOST:PORT`` Prometheus
    endpoint, and a graceful SIGINT/SIGTERM drain (final checkpoint,
    exit 0).  Both modes drain gracefully on SIGINT/SIGTERM.

``trace``
    The perf workbench: replay a stream through the service with the
    tracing tier (:mod:`repro.obs`) enabled, print a per-stage latency
    table, and export the recorded spans as Chrome ``trace_event`` JSON —
    loadable in Perfetto or ``chrome://tracing``, one lane per shard.

``generate``
    Produce a synthetic stream that mimics one of the paper's datasets
    (UK / US / Taxi) and write it to CSV or JSON Lines, so that ``run`` —
    or an external system — has something to consume.

``serve`` grows the same tracing tier behind ``--trace-dir DIR`` (write
``trace.json`` + a stage table on exit), ``--slow-chunk SECONDS`` (flag
slow dispatches with their span tree and queue depths), ``--log-json``
(structured JSON log lines), and the ``REPRO_TRACE`` / ``REPRO_LOG_JSON``
environment switches.

Examples
--------
::

    python -m repro.cli generate --profile taxi --objects 5000 --out /tmp/taxi.csv
    python -m repro.cli run /tmp/taxi.csv --algorithm ccs --rect 0.001 0.0006 \
        --window 300 --alpha 0.5 --report-every 500
    python -m repro.cli serve /tmp/taxi.csv --queries queries.json \
        --shards 4 --executor process --chunk-size 1024
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.core.monitor import DETECTOR_NAMES, SurgeMonitor
from repro.core.query import SurgeQuery
from repro.datasets.io import load_stream, write_csv_stream, write_jsonl_stream
from repro.datasets.profiles import PROFILES
from repro.obs import (
    Tracer,
    enable_json_logging,
    format_stage_table,
    install as install_tracer,
    write_chrome_trace,
)
from repro.service import OverloadConfig, OverloadError, SurgeService, load_query_specs
from repro.service.overload import OVERLOAD_POLICIES
from repro.service.replay import DEFAULT_CHUNK_SIZE, ReplaySettings, recorded_settings
from repro.service.shards import EXECUTOR_NAMES

#: Environment switches of the observability tier (see repro.obs): truthy
#: values enable tracing / JSON logging without the corresponding flag.
TRACE_ENV_VAR = "REPRO_TRACE"
LOG_JSON_ENV_VAR = "REPRO_LOG_JSON"


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuous bursty-region detection (SURGE, ICDE 2018) over spatial streams.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="replay a stream file through a detector")
    run.add_argument("stream", help="path to a .csv or .jsonl stream file")
    run.add_argument(
        "--algorithm",
        default="ccs",
        choices=sorted(DETECTOR_NAMES),
        help="detector to use (default: ccs, the exact Cell-CSPOT)",
    )
    run.add_argument(
        "--rect",
        nargs=2,
        type=float,
        metavar=("WIDTH", "HEIGHT"),
        required=True,
        help="query rectangle size a b",
    )
    run.add_argument("--window", type=float, required=True, help="window length |W| in seconds")
    run.add_argument("--alpha", type=float, default=0.5, help="burst-score balance parameter")
    run.add_argument("--k", type=int, default=1, help="number of bursty regions to maintain")
    run.add_argument(
        "--backend",
        default=None,
        choices=("auto", "python", "numpy"),
        help="SL-CSPOT sweep kernel: pure python, vectorized numpy, or "
        "size-adaptive auto-selection (default: the REPRO_SWEEP_BACKEND "
        "environment variable, else auto)",
    )
    run.add_argument(
        "--report-every",
        type=int,
        default=1000,
        help="print the current result every N objects (default 1000)",
    )
    run.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="ingest the stream in batches of N objects through the batched "
        "event path (SlidingWindowPair.observe_batch -> detector."
        "apply_events), which amortises window maintenance, cell-bound "
        "invalidation and result recomputation over each chunk; must not "
        "exceed --report-every (the default is one chunk per reporting "
        "interval)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="replay a stream through the multi-query service (N queries, sharded)",
    )
    serve.add_argument(
        "stream",
        nargs="?",
        default=None,
        help="path to a .csv or .jsonl stream file (omit with --listen: "
        "the stream then arrives over the network as ingest frames)",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="[HOST:]PORT",
        help="serve over TCP instead of replaying a file: accept "
        "length-prefixed JSON frames (ingest/register/unregister/"
        "subscribe/stats, see repro.server.protocol) on this endpoint; "
        "PORT 0 picks a free port (printed on stdout).  With --resume "
        "and no --listen, the endpoint recorded in the checkpoint is "
        "re-served",
    )
    serve.add_argument(
        "--metrics",
        default=None,
        metavar="[HOST:]PORT",
        help="with --listen: also serve GET /metrics (Prometheus text "
        "format) and /healthz on this HTTP endpoint",
    )
    serve.add_argument(
        "--max-queued-batches",
        type=int,
        default=256,
        metavar="N",
        help="with --listen: admission bound on queued ingest batches; "
        "batches beyond it are refused with a typed 503 overloaded "
        "reply instead of buffering without bound (default 256)",
    )
    serve.add_argument(
        "--queries",
        default=None,
        help="path to a queries.json file (list of query records, see "
        "repro.service.spec); required unless --resume restores the "
        "registry from a checkpoint",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of shards the queries are spread over (default 1; with "
        "--resume the checkpoint's shard layout is restored and this flag "
        "is ignored)",
    )
    serve.add_argument(
        "--executor",
        default=None,
        choices=EXECUTOR_NAMES,
        help="shard execution backend (default: serial, or — with --resume — "
        "the backend recorded in the checkpoint; results are bit-identical "
        "across backends)",
    )
    serve.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="shared-chunker batch size: every chunk is broadcast to each "
        "shard once and each query's monitor ingests its keyword-filtered "
        "slice through the batched push_many path (default 512; with "
        "--resume, the recorded size)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="with --executor remote: size of the worker fleet the "
        "coordinator waits for before serving (default 1); workers join "
        "with 'repro worker --connect HOST:PORT' against the endpoint "
        "printed as 'workers on HOST:PORT', and may join or leave while "
        "serving (shards are rebalanced at safe chunk boundaries)",
    )
    serve.add_argument(
        "--worker-listen",
        default=None,
        metavar="[HOST:]PORT",
        help="with --executor remote: the endpoint the coordinator accepts "
        "worker connections on (default 127.0.0.1:0 — an ephemeral port, "
        "printed on stdout as 'workers on HOST:PORT')",
    )
    serve.add_argument(
        "--spawn-workers",
        action="store_true",
        help="with --executor remote: spawn the --workers worker processes "
        "locally instead of waiting for external 'repro worker' processes "
        "(single-command distributed mode)",
    )
    serve.add_argument(
        "--report-every",
        type=int,
        default=4096,
        help="print per-query results every N objects (default 4096; "
        "rounded up to whole chunks)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for durable state (per-shard snapshot files + "
        "write-ahead log, see repro.state); the service checkpoints there "
        "while serving and --resume restarts from the last checkpoint",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="CHUNKS",
        help="take a checkpoint every N ingested chunks (requires "
        "--checkpoint-dir; default 64 when a checkpoint dir is given)",
    )
    serve.add_argument(
        "--checkpoint-every-seconds",
        type=float,
        default=None,
        metavar="STREAM_SECONDS",
        help="also checkpoint whenever the stream clock advanced this far "
        "since the last checkpoint (requires --checkpoint-dir)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore the service from --checkpoint-dir and replay only the "
        "chunks after the last checkpoint (the stream file must match the "
        "original run; --queries is ignored — the query registry comes from "
        "the checkpoint).  The settings that shape the replayed results — "
        "--chunk-size, --max-lateness, --max-inflight-chunks, "
        "--overload-high/--overload-low/--overload-policy/"
        "--shed-below-priority and --compact-every — resume as recorded: an "
        "omitted flag takes the recorded value, a restated one is accepted, "
        "and a differing one is refused",
    )
    serve.add_argument(
        "--max-lateness",
        type=float,
        default=None,
        metavar="STREAM_SECONDS",
        help="absorb out-of-order arrivals displaced by up to this many "
        "stream seconds (watermark reorder buffer ahead of the chunker); "
        "stragglers past the bound are counted and dropped, and results "
        "for within-bound disorder are bit-identical to the pre-sorted "
        "stream.  Default/0: strict mode — any out-of-order arrival "
        "aborts with OutOfOrderError",
    )
    serve.add_argument(
        "--quarantine-dir",
        default=None,
        help="screen malformed records (NaN timestamps/coordinates, "
        "non-finite weights, broken keyword payloads) out of the stream "
        "instead of crashing, and append them as JSON lines to "
        "quarantine.jsonl in this directory; quarantined records are "
        "counted in the ingest stats",
    )
    serve.add_argument(
        "--max-inflight-chunks",
        type=int,
        default=None,
        metavar="CHUNKS",
        help="bound the ingest tier's buffered backlog (reorder buffer + "
        "pending remainder) to this many chunks' worth of objects; over "
        "budget, the oldest held-back arrivals are force-released early "
        "(still in order, counted in the ingest stats) so memory stays "
        "bounded through any flash crowd.  Requires --max-lateness > 0",
    )
    serve.add_argument(
        "--overload-high",
        type=float,
        default=None,
        metavar="CHUNKS",
        help="enter degraded mode when the queue depth (ingest backlog or "
        "slowest subscriber queue, in chunks) reaches this watermark; "
        "enables the overload tier",
    )
    serve.add_argument(
        "--overload-low",
        type=float,
        default=None,
        metavar="CHUNKS",
        help="leave degraded mode when the queue depth falls back to this "
        "watermark (hysteresis; default: a quarter of --overload-high)",
    )
    serve.add_argument(
        "--overload-policy",
        choices=sorted(OVERLOAD_POLICIES),
        default=None,
        help="what degraded mode does: 'shed' skips low-priority queries "
        "(counted per query), 'stretch' multiplies the checkpoint cadence, "
        "'error' aborts with OverloadError for strict deployments "
        "(default: shed)",
    )
    serve.add_argument(
        "--shed-below-priority",
        type=int,
        default=None,
        metavar="N",
        help="with the shed policy, shed queries whose priority is below N "
        "(default: the highest priority present, i.e. keep only the most "
        "important tier)",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=None,
        metavar="CHUNKS",
        help="run a shared-plan compaction pass every N chunks: queries "
        "registered after churn whose windows have converged with an "
        "existing group's are re-epoched into it, restoring shared "
        "execution (results are bit-identical; merges are counted)",
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="enable the tracing tier (repro.obs: per-stage spans into a "
        "bounded flight recorder) and, on exit, write the recorded spans "
        "as Chrome trace_event JSON to DIR/trace.json (loadable in "
        "Perfetto / chrome://tracing, one lane per shard) plus a "
        "per-stage latency table on stderr.  REPRO_TRACE=1 enables "
        "tracing without the export",
    )
    serve.add_argument(
        "--slow-chunk",
        type=float,
        default=None,
        metavar="SECONDS",
        help="flag chunk dispatches slower than this: the chunk's span "
        "tree and the live queue depths are captured to the flight "
        "recorder and a counted structured warning is logged (implies "
        "tracing on)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines — {ts, level, logger, event, "
        "...fields} — on stderr instead of the default text format "
        "(REPRO_LOG_JSON=1 does the same)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="replay a stream through the service under the tracer and "
        "export a Chrome trace (the perf workbench)",
    )
    trace.add_argument("stream", help="path to a .csv or .jsonl stream file")
    trace.add_argument(
        "--queries",
        required=True,
        help="path to a queries.json file (list of query records, see "
        "repro.service.spec)",
    )
    trace.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of shards (each gets its own trace lane; default 1)",
    )
    trace.add_argument(
        "--executor",
        default="serial",
        choices=EXECUTOR_NAMES,
        help="shard execution backend (default: serial)",
    )
    trace.add_argument(
        "--chunk-size",
        type=int,
        default=512,
        help="shared-chunker batch size (default 512)",
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace_event JSON output path (default: trace.json); "
        "load it in Perfetto or chrome://tracing",
    )
    trace.add_argument(
        "--slow-chunk",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also capture chunk dispatches slower than this to the "
        "flight recorder's slow-chunk buffer (span tree + queue depths)",
    )
    trace.add_argument(
        "--ring-size",
        type=int,
        default=None,
        metavar="SPANS",
        help="flight-recorder ring capacity in spans (default 4096); the "
        "export holds at most this many of the newest spans, while the "
        "per-stage aggregates always cover the whole replay",
    )

    worker = subparsers.add_parser(
        "worker",
        help="host service shards for a remote coordinator "
        "(see 'serve --executor remote')",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator's worker endpoint — printed by "
        "'repro serve --executor remote' as 'workers on HOST:PORT'",
    )
    worker.add_argument(
        "--name",
        default=None,
        help="worker name shown in coordinator logs (default: worker-<pid>)",
    )
    worker.add_argument(
        "--connect-retries",
        type=int,
        default=30,
        metavar="N",
        help="connection attempts before giving up, with exponential "
        "backoff and jitter between attempts — racing the coordinator's "
        "bind is fine (default 30)",
    )

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic stream mimicking a paper dataset"
    )
    generate.add_argument(
        "--profile",
        default="taxi",
        choices=sorted(PROFILES),
        help="dataset profile to mimic (default: taxi)",
    )
    generate.add_argument("--objects", type=int, default=10_000, help="number of objects")
    generate.add_argument("--seed", type=int, default=7, help="random seed")
    generate.add_argument(
        "--no-bursts", action="store_true", help="generate background traffic only"
    )
    generate.add_argument("--out", required=True, help="output path (.csv or .jsonl)")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    if args.report_every < 1:
        print("--report-every must be a positive number of objects", file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print("--chunk-size must be a positive number of objects", file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size > args.report_every:
        # Results are read once per reporting interval, so a larger chunk
        # would silently be clamped to the interval — reject it instead.
        print(
            f"--chunk-size ({args.chunk_size}) must not exceed "
            f"--report-every ({args.report_every}): ingestion chunks are "
            f"read out once per reporting interval",
            file=sys.stderr,
        )
        return 2
    stream = load_stream(args.stream)
    if not stream:
        print("stream is empty", file=sys.stderr)
        return 1
    query = SurgeQuery(
        rect_width=args.rect[0],
        rect_height=args.rect[1],
        window_length=args.window,
        alpha=args.alpha,
        k=args.k,
    )
    try:
        monitor = SurgeMonitor(query, algorithm=args.algorithm, backend=args.backend)
    except (ValueError, RuntimeError) as exc:
        # Bad backend selection (unknown name via REPRO_SWEEP_BACKEND, or
        # numpy requested without the optional dependency installed).
        print(str(exc), file=sys.stderr)
        return 2
    # Objects are pushed through the batched event path in chunks (default:
    # one chunk per reporting interval) so window maintenance and detector
    # result recomputation are amortised over each chunk, not paid per event.
    chunk_size = args.chunk_size if args.chunk_size is not None else args.report_every
    for start in range(0, len(stream), args.report_every):
        batch = stream[start : start + args.report_every]
        for chunk_start in range(0, len(batch), chunk_size):
            monitor.push_many(batch[chunk_start : chunk_start + chunk_size])
        index = start + len(batch)
        results = monitor.top_k() if args.k > 1 else [monitor.result()]
        summary = "; ".join(
            f"score={r.score:.4f} region=({r.region.min_x:.4f},{r.region.min_y:.4f})..({r.region.max_x:.4f},{r.region.max_y:.4f})"
            for r in results
            if r is not None
        )
        print(
            f"[{index:>8} objects, t={batch[-1].timestamp:.0f}] {summary or 'no bursty region yet'}"
        )
    stats = monitor.detector.stats
    print(
        f"done: {stats.events_processed} events, {stats.cells_searched} cell searches, "
        f"{100.0 * stats.search_trigger_ratio:.2f}% of events triggered a search",
        file=sys.stderr,
    )
    return 0


def _format_result(result) -> str:
    if result is None:
        return "no bursty region yet"
    region = result.region
    return (
        f"score={result.score:.4f} region=({region.min_x:.4f},{region.min_y:.4f})"
        f"..({region.max_x:.4f},{region.max_y:.4f})"
    )


def _requested_replay(args: argparse.Namespace) -> ReplaySettings:
    """The replay-shaping settings the serve flags request.

    An unset flag stays ``None``: the default on a fresh start, the recorded
    value on ``--resume``.  The four overload flags describe one
    :class:`OverloadConfig`, which ``--overload-high`` switches on.
    """
    overload = None
    if args.overload_high is not None:
        overload = OverloadConfig(
            high_watermark_chunks=args.overload_high,
            low_watermark_chunks=(
                args.overload_low
                if args.overload_low is not None
                else args.overload_high / 4.0
            ),
            policy=args.overload_policy if args.overload_policy is not None else "shed",
            shed_below_priority=args.shed_below_priority,
        )
    else:
        dependent = {
            "--overload-low": args.overload_low,
            "--overload-policy": args.overload_policy,
            "--shed-below-priority": args.shed_below_priority,
        }
        given = [name for name, value in dependent.items() if value is not None]
        if given:
            raise ValueError(
                f"{', '.join(given)} require --overload-high (the watermark "
                f"that enables the overload tier)"
            )
    return ReplaySettings(
        chunk_size=args.chunk_size,
        max_lateness=args.max_lateness,
        max_inflight_chunks=args.max_inflight_chunks,
        overload=overload,
        compact_every_chunks=args.compact_every,
    )


def _serve_tracer_from_args(args: argparse.Namespace) -> Tracer | None:
    """The serve tracer the flags/environment ask for (``None`` = off).

    Tracing turns on with ``--trace-dir`` (span export on exit),
    ``--slow-chunk`` (the detector needs spans to capture), or the
    ``REPRO_TRACE`` environment variable.  The tracer is also installed
    process-globally so call sites outside the service object — the wire
    codec's ``wire.encode``/``wire.decode`` spans — reach the same
    recorder.
    """
    enabled = (
        args.trace_dir is not None
        or args.slow_chunk is not None
        or _env_truthy(TRACE_ENV_VAR)
    )
    if not enabled:
        return None
    tracer = Tracer(enabled=True, slow_chunk_threshold=args.slow_chunk)
    install_tracer(tracer)
    return tracer


def _remote_executor_options(
    args: argparse.Namespace, executor_name: str | None
) -> dict:
    """The ``RemoteExecutor`` options the serve flags describe.

    ``executor_name`` is the *resolved* backend (an explicit ``--executor``
    or, under ``--resume``, the checkpoint's recorded one).  The remote
    flags are refused for any other backend, and the coordinator's worker
    endpoint is announced on stdout (``workers on HOST:PORT``) so external
    ``repro worker --connect`` processes know where to dial.
    """
    remote_flags = {
        "--workers": args.workers,
        "--worker-listen": args.worker_listen,
        "--spawn-workers": args.spawn_workers or None,
    }
    if executor_name != "remote":
        given = [name for name, value in remote_flags.items() if value is not None]
        if given:
            raise ValueError(
                f"{', '.join(given)} require --executor remote "
                f"(the distributed shard tier)"
            )
        return {}
    workers = args.workers if args.workers is not None else 1
    listen = ("127.0.0.1", 0)
    if args.worker_listen is not None:
        listen = _parse_endpoint(args.worker_listen, flag="--worker-listen")

    def announce(host: str, port: int) -> None:
        # Parsed by tooling (the remote smoke reads the endpoint here).
        print(f"workers on {host}:{port}", flush=True)

    return {
        "workers": workers,
        "listen": listen,
        "spawn_workers": workers if args.spawn_workers else 0,
        "on_listening": announce,
    }


def _build_serve_service(
    args: argparse.Namespace, *, require_queries: bool = True
) -> SurgeService:
    """Construct the ``serve`` service: fresh, or restored with ``--resume``."""
    from repro.state import CheckpointPolicy, has_checkpoint

    requested = _requested_replay(args)
    tracer = _serve_tracer_from_args(args)

    checkpoint_dir = args.checkpoint_dir
    if args.resume and checkpoint_dir is None:
        raise ValueError("--resume requires --checkpoint-dir")
    cadence_given = (
        args.checkpoint_every is not None or args.checkpoint_every_seconds is not None
    )
    if checkpoint_dir is None and cadence_given:
        raise ValueError(
            "--checkpoint-every/--checkpoint-every-seconds require --checkpoint-dir"
        )
    policy = None
    if cadence_given:
        from repro.service.service import DEFAULT_CHECKPOINT_EVERY_CHUNKS

        # --checkpoint-every-seconds *adds* a trigger; the documented
        # every-64-chunks default stays live unless --checkpoint-every
        # explicitly overrides it.
        policy = CheckpointPolicy(
            every_chunks=(
                args.checkpoint_every
                if args.checkpoint_every is not None
                else DEFAULT_CHECKPOINT_EVERY_CHUNKS
            ),
            every_stream_seconds=args.checkpoint_every_seconds,
        )

    if args.resume:
        # Refused before anything is restored: a remote or process backend
        # would otherwise be spawned just to be torn down again.
        recorded_executor, recorded = recorded_settings(checkpoint_dir)
        recorded.conflicts(requested)
        for flag, value, restored in (
            ("--queries", args.queries, "the query registry"),
            ("--shards", args.shards, "the shard layout (the per-shard "
             "snapshot files partition the queries)"),
        ):
            if value is not None:
                print(f"note: --resume restores {restored} from the "
                      f"checkpoint; {flag} is ignored", file=sys.stderr)
        # An explicit --executor overrides; otherwise the recorded backend
        # resumes (defaulting to "serial" here would silently downgrade a
        # process-sharded service).
        return SurgeService.restore(
            checkpoint_dir,
            executor=args.executor,
            executor_options=_remote_executor_options(
                args, args.executor or recorded_executor
            ),
            checkpoint_policy=policy,
            quarantine_dir=args.quarantine_dir,
            tracer=tracer,
        )

    if args.queries is None and require_queries:
        raise ValueError("--queries is required (unless resuming with --resume)")
    if checkpoint_dir is not None and has_checkpoint(checkpoint_dir):
        raise ValueError(
            f"{checkpoint_dir} already holds a service checkpoint; pass "
            f"--resume to continue it, or point --checkpoint-dir somewhere "
            f"else to start fresh"
        )
    if args.queries is None:
        # Network mode without --queries: the registry starts empty and
        # fills through register frames.
        specs = []
    else:
        try:
            specs = load_query_specs(args.queries)
        except (OSError, ValueError) as exc:
            raise ValueError(f"failed to load {args.queries}: {exc}") from exc
    executor_name = args.executor if args.executor is not None else "serial"
    return SurgeService(
        specs,
        shards=args.shards if args.shards is not None else 1,
        executor=executor_name,
        executor_options=_remote_executor_options(args, executor_name),
        checkpoint_dir=checkpoint_dir,
        checkpoint_policy=policy,
        quarantine_dir=args.quarantine_dir,
        tracer=tracer,
        **requested.keywords(),
    )


def _parse_endpoint(value: str, *, flag: str) -> tuple[str, int]:
    """Parse a ``[HOST:]PORT`` endpoint (default host: loopback)."""
    host, sep, port = value.rpartition(":")
    if not sep:
        host, port = "", value
    if not host:
        host = "127.0.0.1"
    try:
        port_number = int(port)
    except ValueError:
        raise ValueError(f"{flag} expects [HOST:]PORT, got {value!r}") from None
    if not 0 <= port_number <= 65535:
        raise ValueError(f"{flag} port must be in 0..65535, got {port_number}")
    return host, port_number


def _print_remote_summary(service) -> None:
    """One stderr line of distributed-tier counters (remote executor only).

    Parsed by the remote smoke: the failover counters are the evidence
    that the kill actually exercised the failover path.
    """
    distributed = service.distributed_stats()
    if distributed is None:
        return
    print(
        "remote: workers_joined={workers_joined} "
        "workers_lost={workers_lost} "
        "rpc_retries={rpc_retries} rpc_timeouts={rpc_timeouts} "
        "shards_failed_over={shards_failed_over} "
        "shards_migrated={shards_migrated} "
        "failover_seconds={failover_seconds:.3f}".format(**distributed),
        file=sys.stderr,
    )


@contextmanager
def _drain_on_signals(drain: Callable[[], None]) -> Iterator[None]:
    """Route SIGINT/SIGTERM to ``drain`` for the block, then put the previous
    handlers back however the block exits, so in-process callers keep theirs.

    Only the main thread may install handlers; elsewhere this is a no-op.
    """
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, lambda *_: drain())
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _command_serve_network(
    args: argparse.Namespace, service: SurgeService, chunk_size: int
) -> int:
    """Serve the service over TCP until drained (SIGINT/SIGTERM/drain frame);
    the caller owns (and closes) ``service``."""
    from repro.server import SurgeServer

    recorded = service.server_info or {}
    if args.listen is not None:
        host, port = _parse_endpoint(args.listen, flag="--listen")
    elif recorded.get("port"):
        # --resume without --listen: re-serve the endpoint the checkpoint
        # recorded (the manifest's "server" field).
        host, port = recorded["host"], int(recorded["port"])
    else:
        raise ValueError(
            "no stream file and no --listen endpoint: pass a stream to "
            "replay, or --listen [HOST:]PORT to serve the network (the "
            "resumed checkpoint records no listener to re-serve)"
        )
    metrics_host: str | None = None
    metrics_port: int | None = None
    if args.metrics is not None:
        metrics_host, metrics_port = _parse_endpoint(args.metrics, flag="--metrics")
    elif args.listen is None and recorded.get("metrics_port") is not None:
        metrics_host = recorded.get("metrics_host")
        metrics_port = int(recorded["metrics_port"])
    server = SurgeServer(
        service,
        host=host,
        port=port,
        metrics_host=metrics_host,
        metrics_port=metrics_port,
        chunk_size=chunk_size,
        max_queued_batches=args.max_queued_batches,
    )
    # Handlers go in BEFORE the listening line is printed: tooling sends the
    # drain signal as soon as it reads that line, and a pre-start
    # request_drain() is already safe (the server drains immediately after
    # binding).
    with _drain_on_signals(server.request_drain):
        server.start_background()
        metrics_note = (
            f" (metrics http://{metrics_host or host}:{server.metrics_port}/metrics)"
            if server.metrics_port is not None
            else ""
        )
        # Parsed by tooling (the server smoke reads the bound ports here).
        print(f"listening on {server.host}:{server.port}{metrics_note}", flush=True)
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=0.5)
        summary = server.drain_summary or {}
        checkpoint = summary.get("checkpoint")
        print(
            f"drained: {service.stats().objects_pushed} objects in "
            f"{service.chunk_offset} chunks"
            + (f", final checkpoint {checkpoint}" if checkpoint else ""),
            file=sys.stderr,
        )
        _print_remote_summary(service)
    return 0


def _write_trace_export(service, args: argparse.Namespace) -> None:
    """Export the serve run's spans to ``--trace-dir`` (if both are on)."""
    tracer = service.tracer
    if args.trace_dir is None or tracer is None:
        return
    out = Path(args.trace_dir) / "trace.json"
    try:
        spans = write_chrome_trace(out, tracer.recorder)
    except OSError as exc:
        print(f"trace export to {out} failed: {exc}", file=sys.stderr)
        return
    print(f"trace: {spans} spans -> {out}", file=sys.stderr)
    table = format_stage_table(tracer.recorder.stage_stats())
    if table:
        print(table, file=sys.stderr)


def _command_serve(args: argparse.Namespace) -> int:
    if args.log_json or _env_truthy(LOG_JSON_ENV_VAR):
        enable_json_logging()
    if args.shards is not None and args.shards < 1:
        print("--shards must be a positive number of shards", file=sys.stderr)
        return 2
    if args.report_every < 1:
        print("--report-every must be a positive number of objects", file=sys.stderr)
        return 2
    if args.max_queued_batches < 1:
        print("--max-queued-batches must be >= 1", file=sys.stderr)
        return 2
    network = args.listen is not None or args.stream is None
    if network and args.stream is not None:
        print(
            "--listen serves the network; it cannot be combined with a "
            "stream file (the stream arrives as ingest frames)",
            file=sys.stderr,
        )
        return 2
    if args.metrics is not None and not network:
        print("--metrics requires --listen", file=sys.stderr)
        return 2
    try:
        service = _build_serve_service(args, require_queries=not network)
    except (OSError, ValueError, RuntimeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # On --resume the recorded size (a differing request was refused).
    chunk_size = service.replay.chunk_size or args.chunk_size or DEFAULT_CHUNK_SIZE
    if network:
        from repro.server.server import EndpointInUseError

        try:
            with service:  # closed on a refused endpoint too
                code = _command_serve_network(args, service, chunk_size)
        except EndpointInUseError as exc:
            # The --resume re-serve trip-wire: the manifest's recorded
            # endpoint is still held (often by the instance being
            # replaced).  Typed advice instead of a raw errno traceback.
            print(
                f"{exc.strerror}: stop the process holding it, or pass "
                f"--listen [HOST:]PORT to serve a different endpoint "
                f"(port 0 picks a free one)",
                file=sys.stderr,
            )
            return 1
        except (OSError, ValueError, RuntimeError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _write_trace_export(service, args)
        return code
    # With the screen absorbing, the file records an *arrival order* for the
    # tier to absorb — loading it pre-sorted would silently repair the
    # disorder (and poison NaN timestamps break sorting).  A resumed service
    # keeps its recorded screen mode, whatever flags are re-passed.
    stream = load_stream(args.stream, sort=service.strict)
    if not stream:
        service.close()
        print("stream is empty", file=sys.stderr)
        return 1
    start_offset = service.chunk_offset
    if start_offset:
        print(
            f"resuming from checkpoint: {start_offset} chunks "
            f"({min(start_offset * chunk_size, len(stream))} objects) "
            f"already durable, replaying the rest",
            file=sys.stderr,
        )
    report_chunks = max(1, -(-args.report_every // chunk_size))
    # Graceful drain on SIGINT/SIGTERM: finish the in-flight chunk, stop
    # consuming, then fall through to the final checkpoint and results —
    # the stdout block is exactly a clean run over the consumed prefix.
    drain = threading.Event()
    with service, _drain_on_signals(drain.set):
        try:
            for index, updates in enumerate(
                service.run(stream, chunk_size, start_offset=start_offset),
                start=start_offset + 1,
            ):
                pushed = min(index * chunk_size, len(stream))
                if index % report_chunks == 0 or pushed >= len(stream):
                    print(f"[{pushed:>8} objects, t={stream[pushed - 1].timestamp:.0f}]")
                    for update in updates:
                        print(f"  {update.query_id:>12}: {_format_result(update.result)}")
                if drain.is_set():
                    print(
                        f"draining: stopping after {index} chunks "
                        f"({pushed} objects consumed); taking the final "
                        f"checkpoint and reporting the consumed prefix",
                        file=sys.stderr,
                    )
                    break
        except OverloadError as exc:
            print(
                f"overload: queue depth {exc.depth_chunks:.1f} chunks "
                f"crossed the high watermark (policy=error); aborting — "
                f"rerun with --overload-policy shed or stretch to degrade "
                f"gracefully instead",
                file=sys.stderr,
            )
            return 1
        except ValueError as exc:
            # A strict screen refusing a malformed or out-of-order record
            # (OutOfOrderError is a ValueError), or a resume stream that
            # does not match the checkpoint.
            print(str(exc), file=sys.stderr)
            return 1
        if service.checkpoint_dir is not None:
            # Final checkpoint: a subsequent --resume of the same stream is a
            # no-op replay that just reprints the final results.
            service.checkpoint()
        print("final results:")
        for query_id, result in service.results().items():
            print(f"  {query_id:>12}: {_format_result(result)}")
        if not service.strict:
            # Part of the compared stdout block on purpose: the chaos smoke
            # asserts these counters are consistent across a crash+resume.
            ingest = service.ingest_stats()
            print(
                f"ingest: reordered={ingest.reordered} "
                f"late_dropped={ingest.late_dropped} "
                f"duplicates_seen={ingest.duplicates_seen} "
                f"quarantined={ingest.quarantined} "
                f"subscriber_errors={ingest.subscriber_errors}"
            )
        replay = service.replay
        overload_on = any(
            (replay.overload, replay.max_inflight_chunks, replay.compact_every_chunks)
        )
        if overload_on:
            # Also part of the compared block: the chaos smoke's overload
            # leg asserts shed/compaction counters survive a crash+resume.
            overload = service.overload_stats()
            ingest = service.ingest_stats()
            print(
                f"overload: entered={overload.entered_degraded} "
                f"exited={overload.exited_degraded} "
                f"chunks_shed={overload.chunks_shed} "
                f"updates_shed={overload.updates_shed} "
                f"checkpoints_deferred={overload.checkpoints_deferred} "
                f"compactions={overload.compactions} "
                f"queries_compacted={overload.queries_compacted} "
                f"force_released={ingest.force_released}"
            )
        stats = service.stats()
        print(
            f"done: {stats.objects_pushed} objects x {len(service.query_ids)} "
            f"queries = {stats.object_query_pairs} object-query pairs in "
            f"{stats.wall_seconds:.2f}s "
            f"({stats.pairs_per_second:,.0f} pairs/s, "
            f"executor={service.executor_name}, shards={service.n_shards})",
            file=sys.stderr,
        )
        if overload_on:
            print(
                f"  overload: max queue depth "
                f"{overload.max_depth_chunks:.1f} chunks, "
                f"degraded={'yes' if service.degraded else 'no'}, "
                f"peak buffered {service.ingest_stats().peak_buffered} objects",
                file=sys.stderr,
            )
        for query_id in service.query_ids:
            query_stats = stats.per_query[query_id]
            print(
                f"  {query_id:>12}: {query_stats.objects_routed} routed, "
                f"{query_stats.objects_per_second:,.0f} obj/s busy, "
                f"last lag {1000.0 * query_stats.last_lag_seconds:.1f} ms",
                file=sys.stderr,
            )
        _print_remote_summary(service)
    _write_trace_export(service, args)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    """The perf workbench: replay under the tracer, export a Chrome trace.

    Every pipeline stage of the replay records spans into the tracer's
    flight recorder; afterwards the newest ``--ring-size`` spans go out as
    Chrome ``trace_event`` JSON (one lane per shard, plus the ingest/bus
    lanes) and the whole-replay per-stage aggregates print as a table.
    """
    if args.shards < 1:
        print("--shards must be a positive number of shards", file=sys.stderr)
        return 2
    if args.chunk_size < 1:
        print("--chunk-size must be a positive number of objects", file=sys.stderr)
        return 2
    if args.slow_chunk is not None and args.slow_chunk < 0:
        print("--slow-chunk must be >= 0 seconds", file=sys.stderr)
        return 2
    if args.ring_size is not None and args.ring_size < 1:
        print("--ring-size must be a positive number of spans", file=sys.stderr)
        return 2
    try:
        specs = load_query_specs(args.queries)
    except (OSError, ValueError) as exc:
        print(f"failed to load {args.queries}: {exc}", file=sys.stderr)
        return 2
    stream = load_stream(args.stream)
    if not stream:
        print("stream is empty", file=sys.stderr)
        return 1
    tracer_kwargs = {"slow_chunk_threshold": args.slow_chunk}
    if args.ring_size is not None:
        tracer_kwargs["ring_size"] = args.ring_size
    tracer = Tracer(enabled=True, **tracer_kwargs)
    install_tracer(tracer)
    try:
        service = SurgeService(
            specs,
            shards=args.shards,
            executor=args.executor,
            tracer=tracer,
        )
        with service:
            for _ in service.run(stream, args.chunk_size):
                pass
        stage_stats = service.stage_stats()
    finally:
        install_tracer(None)
    try:
        spans = write_chrome_trace(args.out, tracer.recorder)
    except OSError as exc:
        print(f"trace export to {args.out} failed: {exc}", file=sys.stderr)
        return 1
    print(format_stage_table(stage_stats))
    slow = tracer.recorder.slow_chunk_count
    print(
        f"trace: {len(stream)} objects, {service.chunk_offset} chunks, "
        f"{spans} spans -> {args.out}"
        + (f" ({slow} slow chunks flagged)" if slow else ""),
        file=sys.stderr,
    )
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    """Host service shards for a remote coordinator until told to stop."""
    if args.connect_retries < 0:
        print("--connect-retries must be >= 0", file=sys.stderr)
        return 2
    try:
        host, port = _parse_endpoint(args.connect, flag="--connect")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # Imported lazily: the distributed tier is only needed by this command
    # and by 'serve --executor remote'.
    from repro.distributed.worker import ShardWorker

    worker = ShardWorker(
        host,
        port,
        name=args.name,
        connect_retries=args.connect_retries,
    )
    return worker.run()


def _command_generate(args: argparse.Namespace) -> int:
    # Validate the output path before touching the generator, so usage errors
    # are reported even when the optional numpy dependency is missing.
    lowered = args.out.lower()
    if lowered.endswith(".csv"):
        writer = write_csv_stream
    elif lowered.endswith((".jsonl", ".json", ".ndjson")):
        writer = write_jsonl_stream
    else:
        print("output path must end in .csv or .jsonl", file=sys.stderr)
        return 1
    try:
        # Imported lazily: the synthetic generator is the only CLI path that
        # needs the optional numpy dependency; ``run`` must work without it.
        from repro.datasets.synthetic import generate_profile_stream
    except ImportError:
        print(
            "the 'generate' command needs numpy; install it with "
            "'pip install .[fast]'",
            file=sys.stderr,
        )
        return 1
    profile = PROFILES[args.profile]
    stream = generate_profile_stream(
        profile, n_objects=args.objects, seed=args.seed, with_bursts=not args.no_bursts
    )
    written = writer(args.out, stream)
    print(f"wrote {written} objects ({profile.name} profile) to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "generate":
        return _command_generate(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
