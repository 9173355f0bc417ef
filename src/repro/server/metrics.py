"""Prometheus text-format rendering of the service's stats surfaces.

:func:`render_prometheus` turns the engine's stats snapshot (see
:meth:`repro.server.engine.ServerEngine._snapshot_stats`) into the
Prometheus text exposition format, version ``0.0.4``: one ``# HELP`` and
``# TYPE`` line per metric family, then one sample per line, labels
escaped per the spec.  Families:

* ``repro_service_*`` — the aggregate :class:`~repro.service.bus.
  ServiceStats` counters (objects, chunks, object–query pairs, wall time);
* ``repro_ingest_*`` — the disorder-tolerant tier's
  :class:`~repro.streams.watermark.IngestStats` counters;
* ``repro_overload_*`` — the overload tier's :class:`~repro.service.
  overload.OverloadStats` (including the ``repro_overload_degraded``
  gauge and current queue depth);
* ``repro_query_*`` — per-query series labelled ``{query="..."}``:
  routed objects, busy seconds, chunk counts, and the result-lag
  gauges (``last``/``max``);
* ``repro_subscription_*`` — per-subscription conservation counters
  labelled ``{subscription="...",policy="..."}``;
* ``repro_server_*`` — the front end's own counters (connections,
  subscribers, refused ingest batches);
* ``repro_stage_seconds`` — per-stage latency histograms from the tracing
  tier's flight recorder (see :mod:`repro.obs`), one series set per stage
  label with the log-bucketed bounds of
  :data:`repro.obs.tracer.HISTOGRAM_BOUNDS`; rendered only when the
  snapshot carries a ``stages`` section (i.e. a tracer is attached).

Everything renders from one immutable snapshot taken inside the engine
thread, so a scrape never observes a torn update.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.tracer import HISTOGRAM_BOUNDS

#: (metric suffix, snapshot key) pairs of the service-level counters.
_SERVICE_COUNTERS = (
    ("objects_pushed_total", "objects_pushed"),
    ("chunks_pushed_total", "chunks_pushed"),
    ("object_query_pairs_total", "object_query_pairs"),
)

_INGEST_COUNTERS = (
    "reordered",
    "late_dropped",
    "duplicates_seen",
    "quarantined",
    "subscriber_errors",
    "spill_errors",
    "force_released",
)

_OVERLOAD_COUNTERS = (
    "entered_degraded",
    "exited_degraded",
    "chunks_shed",
    "updates_shed",
    "checkpoints_deferred",
    "compactions",
    "queries_compacted",
)

_QUERY_COUNTERS = (
    ("objects_routed_total", "objects_routed"),
    ("chunks_processed_total", "chunks_processed"),
    ("dropped_results_total", "dropped_results"),
    ("chunks_shed_total", "chunks_shed"),
)

_SUBSCRIPTION_COUNTERS = ("offered", "delivered", "dropped")

#: Counters of the distributed shard tier (see repro.distributed.stats);
#: rendered only when the snapshot carries a ``distributed`` section
#: (i.e. the service runs the remote executor).
_REMOTE_COUNTERS = (
    "rpc_retries",
    "rpc_timeouts",
    "workers_lost",
    "workers_joined",
    "shards_failed_over",
    "shards_migrated",
    "heartbeats_sent",
    "heartbeat_misses",
    "replies_discarded",
)

_REMOTE_GAUGES = (
    ("workers_alive", "Workers currently connected and considered live."),
    ("workers_total", "Workers admitted over the coordinator's lifetime."),
    ("ledger_depth", "Mutating messages in the failover replay ledger."),
)


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _sample(
    name: str, value: Any, labels: dict[str, str] | None = None
) -> str:
    if labels:
        body = ",".join(
            f'{key}="{escape_label_value(str(val))}"'
            for key, val in labels.items()
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _family(
    name: str, kind: str, help_text: str, samples: Iterable[str]
) -> list[str]:
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
    lines.extend(samples)
    return lines


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Render one stats snapshot as Prometheus exposition text."""
    lines: list[str] = []
    service = snapshot.get("service", {})
    for suffix, key in _SERVICE_COUNTERS:
        name = f"repro_service_{suffix}"
        lines += _family(
            name,
            "counter",
            f"Service counter {key}.",
            [_sample(name, service.get(key, 0))],
        )
    name = "repro_service_wall_seconds_total"
    lines += _family(
        name,
        "counter",
        "Wall-clock seconds spent dispatching chunks.",
        [_sample(name, service.get("wall_seconds", 0.0))],
    )

    ingest = snapshot.get("ingest", {})
    for key in _INGEST_COUNTERS:
        name = f"repro_ingest_{key}_total"
        lines += _family(
            name,
            "counter",
            f"Disorder-tolerant ingestion counter {key}.",
            [_sample(name, ingest.get(key, 0))],
        )
    name = "repro_ingest_peak_buffered"
    lines += _family(
        name,
        "gauge",
        "Peak objects buffered ahead of the shards (reorder heap + pending).",
        [_sample(name, ingest.get("peak_buffered", 0))],
    )

    overload = snapshot.get("overload", {})
    for key in _OVERLOAD_COUNTERS:
        name = f"repro_overload_{key}_total"
        lines += _family(
            name,
            "counter",
            f"Overload tier counter {key}.",
            [_sample(name, overload.get(key, 0))],
        )
    name = "repro_overload_degraded"
    lines += _family(
        name,
        "gauge",
        "Whether the service is currently in degraded mode (0/1).",
        [_sample(name, snapshot.get("degraded", False))],
    )
    name = "repro_overload_max_depth_chunks"
    lines += _family(
        name,
        "gauge",
        "Deepest queue depth ever observed, in chunks.",
        [_sample(name, overload.get("max_depth_chunks", 0.0))],
    )
    name = "repro_overload_queue_depth_chunks"
    lines += _family(
        name,
        "gauge",
        "Current observed queue depth, in chunks.",
        [_sample(name, snapshot.get("queue_depth_chunks", 0.0))],
    )

    queries = snapshot.get("queries", {})
    for suffix, key in _QUERY_COUNTERS:
        name = f"repro_query_{suffix}"
        lines += _family(
            name,
            "counter",
            f"Per-query counter {key}.",
            [
                _sample(name, stats.get(key, 0), {"query": query_id})
                for query_id, stats in queries.items()
            ],
        )
    name = "repro_query_busy_seconds_total"
    lines += _family(
        name,
        "counter",
        "Seconds each query's pipeline spent routing and detecting.",
        [
            _sample(name, stats.get("busy_seconds", 0.0), {"query": query_id})
            for query_id, stats in queries.items()
        ],
    )
    for suffix, key in (
        ("last_lag_seconds", "last_lag_seconds"),
        ("max_lag_seconds", "max_lag_seconds"),
    ):
        name = f"repro_query_{suffix}"
        lines += _family(
            name,
            "gauge",
            f"Per-query result lag ({key}): wall time from chunk submission "
            f"to the update surfacing.",
            [
                _sample(name, stats.get(key, 0.0), {"query": query_id})
                for query_id, stats in queries.items()
            ],
        )

    subscriptions = snapshot.get("subscriptions", [])
    for key in _SUBSCRIPTION_COUNTERS:
        name = f"repro_subscription_{key}_total"
        lines += _family(
            name,
            "counter",
            f"Per-subscription counter {key} "
            f"(offered == delivered + dropped + depth).",
            [
                _sample(
                    name,
                    record.get(key, 0),
                    {
                        "subscription": record.get("name") or f"sub{index}",
                        "policy": record.get("policy", ""),
                    },
                )
                for index, record in enumerate(subscriptions)
            ],
        )
    name = "repro_subscription_depth"
    lines += _family(
        name,
        "gauge",
        "Updates currently buffered per subscription.",
        [
            _sample(
                name,
                record.get("depth", 0),
                {
                    "subscription": record.get("name") or f"sub{index}",
                    "policy": record.get("policy", ""),
                },
            )
            for index, record in enumerate(subscriptions)
        ],
    )

    server = snapshot.get("server", {})
    for key, kind, help_text in (
        ("connections", "gauge", "Open frame-protocol connections."),
        ("subscribers", "gauge", "Connections in subscribe mode."),
        ("connections_total", "counter", "Connections ever accepted."),
        ("frames_in_total", "counter", "Request frames received."),
        ("frames_out_total", "counter", "Frames sent to clients."),
        (
            "pump_writes_total",
            "counter",
            "Socket writes made by subscription pumps (each carries every "
            "frame buffered at wake-up).",
        ),
        (
            "ingest_rejected_total",
            "counter",
            "Ingest batches refused with a 503 overloaded reply.",
        ),
    ):
        name = f"repro_server_{key}"
        lines += _family(
            name, kind, help_text, [_sample(name, server.get(key, 0))]
        )
    name = "repro_server_queued_ingest_batches"
    lines += _family(
        name,
        "gauge",
        "Ingest batches queued ahead of the engine worker.",
        [_sample(name, snapshot.get("queued_ingest_batches", 0))],
    )

    name = "repro_checkpoint_prune_errors_total"
    lines += _family(
        name,
        "counter",
        "Checkpoint prune deletes that failed (stale generations left on disk).",
        [_sample(name, snapshot.get("checkpoint_prune_errors", 0))],
    )

    distributed = snapshot.get("distributed")
    if distributed:
        for key in _REMOTE_COUNTERS:
            name = f"repro_remote_{key}_total"
            lines += _family(
                name,
                "counter",
                f"Distributed shard tier counter {key}.",
                [_sample(name, distributed.get(key, 0))],
            )
        name = "repro_remote_failover_seconds_total"
        lines += _family(
            name,
            "counter",
            "Wall-clock seconds spent failing shards over "
            "(restore + ledger replay).",
            [_sample(name, distributed.get("failover_seconds", 0.0))],
        )
        for key, help_text in _REMOTE_GAUGES:
            name = f"repro_remote_{key}"
            lines += _family(
                name, "gauge", help_text, [_sample(name, distributed.get(key, 0))]
            )

    stages = snapshot.get("stages") or {}
    if stages:
        lines += _family(
            "repro_stage_seconds",
            "histogram",
            "Pipeline stage latency from the tracing flight recorder.",
            _stage_histogram_samples(stages),
        )
    return "\n".join(lines) + "\n"


def _stage_histogram_samples(stages: dict[str, Any]) -> list[str]:
    """Histogram sample lines for every traced stage, cumulative per spec.

    The recorder stores *non-cumulative* log-spaced buckets (one slot per
    bound of :data:`~repro.obs.tracer.HISTOGRAM_BOUNDS` plus the overflow);
    the exposition format wants cumulative ``le`` buckets ending at
    ``+Inf`` with ``_sum``/``_count`` conservation, so the re-accumulation
    happens here at render time.
    """
    samples: list[str] = []
    for stage in sorted(stages):
        record = stages[stage]
        buckets = list(record.get("buckets", ()))
        count = int(record.get("count", 0))
        cumulative = 0
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            cumulative += buckets[index] if index < len(buckets) else 0
            samples.append(
                _sample(
                    "repro_stage_seconds_bucket",
                    cumulative,
                    {"stage": stage, "le": repr(float(bound))},
                )
            )
        samples.append(
            _sample(
                "repro_stage_seconds_bucket",
                count,
                {"stage": stage, "le": "+Inf"},
            )
        )
        samples.append(
            _sample(
                "repro_stage_seconds_sum",
                float(record.get("total_seconds", 0.0)),
                {"stage": stage},
            )
        )
        samples.append(
            _sample("repro_stage_seconds_count", count, {"stage": stage})
        )
    return samples


__all__ = ["render_prometheus", "escape_label_value"]
