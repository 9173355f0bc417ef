"""Prometheus text-format rendering of the service's stats surfaces.

:func:`render_prometheus` turns the engine's stats snapshot (see
:meth:`repro.server.engine.ServerEngine._snapshot_stats`) into the
Prometheus text exposition format, version ``0.0.4``: one ``# HELP`` and
``# TYPE`` line per metric family, then one sample per line, labels
escaped per the spec.

Most families are read off the stats records themselves: every field a
record declares with :func:`~repro.obs.counters.counter` or
:func:`~repro.obs.counters.gauge` renders as ``repro_{section}_{field}``
(plus ``_total`` for counters), with the field's help text:

* ``repro_service_*`` — :class:`~repro.service.bus.ServiceStats`;
* ``repro_ingest_*`` — :class:`~repro.streams.watermark.IngestStats`;
* ``repro_overload_*`` — :class:`~repro.service.overload.OverloadStats`;
* ``repro_query_*`` — :class:`~repro.service.bus.QueryStats`, one series
  per query labelled ``{query="..."}``;
* ``repro_remote_*`` — :class:`~repro.distributed.stats.DistributedStats`,
  only when the snapshot carries a ``distributed`` section (the remote
  executor).

The tables below declare the few families no record keeps: per-subscription
counters labelled ``{subscription="...",policy="..."}``, the front end's
``repro_server_*`` counters (only when the snapshot carries the front end's
``server`` section), the queue depth and the remote fleet gauges.
Last come the ``repro_stage_seconds`` histograms of the tracing tier's
flight recorder (see :mod:`repro.obs`), only when a tracer is attached.

Everything renders from one immutable snapshot taken inside the engine
thread, so a scrape never observes a torn update.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.distributed.stats import DistributedStats
from repro.obs.counters import declarations
from repro.obs.tracer import HISTOGRAM_BOUNDS
from repro.service.bus import QueryStats, ServiceStats
from repro.service.overload import OverloadStats
from repro.streams.watermark import IngestStats

#: (snapshot section, family prefix, record) rendered field by field.
_RECORDS = (
    ("service", "service", ServiceStats),
    ("ingest", "ingest", IngestStats),
    ("overload", "overload", OverloadStats),
    ("distributed", "remote", DistributedStats),
)

#: Per-subscription families: (snapshot key, TYPE, HELP).
_SUBSCRIPTION = (
    ("offered", "counter", "Updates offered (offered == delivered + dropped + depth)."),
    ("delivered", "counter", "Updates handed to the consumer."),
    ("dropped", "counter", "Updates discarded by the slow-consumer policy."),
    ("depth", "gauge", "Updates currently buffered per subscription."),
)

#: Families no stats record declares: (family, TYPE, snapshot section,
#: ``""`` for the top level, key, HELP).
_UNDECLARED = (
    ("repro_overload_queue_depth_chunks", "gauge", "", "queue_depth_chunks",
     "Current observed queue depth, in chunks."),
    ("repro_server_connections", "gauge", "server", "connections",
     "Open frame-protocol connections."),
    ("repro_server_subscribers", "gauge", "server", "subscribers",
     "Connections in subscribe mode."),
    ("repro_server_connections_total", "counter", "server", "connections_total",
     "Connections ever accepted."),
    ("repro_server_frames_in_total", "counter", "server", "frames_in_total",
     "Request frames received."),
    ("repro_server_frames_out_total", "counter", "server", "frames_out_total",
     "Frames sent to clients."),
    ("repro_server_pump_writes_total", "counter", "server", "pump_writes_total",
     "Socket writes made by subscription pumps (each carries every frame "
     "buffered at wake-up)."),
    ("repro_server_ingest_rejected_total", "counter", "server",
     "ingest_rejected_total", "Ingest batches refused with a 503 overloaded reply."),
    ("repro_server_queued_ingest_batches", "gauge", "", "queued_ingest_batches",
     "Ingest batches queued ahead of the engine worker."),
    ("repro_checkpoint_prune_errors_total", "counter", "", "checkpoint_prune_errors",
     "Checkpoint prune deletes that failed (stale generations left on disk)."),
    ("repro_remote_workers_alive", "gauge", "distributed", "workers_alive",
     "Workers currently connected and considered live."),
    ("repro_remote_workers_total", "gauge", "distributed", "workers_total",
     "Workers admitted over the coordinator's lifetime."),
    ("repro_remote_ledger_depth", "gauge", "distributed", "ledger_depth",
     "Mutating messages in the failover replay ledger."),
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


def _sample(name: str, value: Any, labels: dict[str, str] | None = None) -> str:
    if labels:
        body = ",".join(
            f'{key}="{escape_label_value(str(val))}"'
            for key, val in labels.items()
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _family_name(prefix: str, key: str, kind: str) -> str:
    return f"repro_{prefix}_{key}" + ("_total" if kind == "counter" else "")


def _families(
    snapshot: dict[str, Any],
) -> Iterable[tuple[str, str, str, list[tuple[dict | None, Any]]]]:
    """``(family, TYPE, HELP, [(labels, value)])`` of every non-histogram family."""
    for section, prefix, record in _RECORDS:
        if section == "distributed" and not snapshot.get(section):
            continue
        values = snapshot.get(section, {})
        for key, kind, help_text, default in declarations(record):
            name = _family_name(prefix, key, kind)
            yield name, kind, help_text, [(None, values.get(key, default))]
    queries = snapshot.get("queries", {})
    for key, kind, help_text, default in declarations(QueryStats):
        yield _family_name("query", key, kind), kind, help_text, [
            ({"query": query_id}, stats.get(key, default))
            for query_id, stats in queries.items()
        ]
    subscriptions = snapshot.get("subscriptions", [])
    for key, kind, help_text in _SUBSCRIPTION:
        yield _family_name("subscription", key, kind), kind, help_text, [
            (
                {
                    "subscription": record.get("name") or f"sub{index}",
                    "policy": record.get("policy", ""),
                },
                record.get(key, 0),
            )
            for index, record in enumerate(subscriptions)
        ]
    for name, kind, section, key, help_text in _UNDECLARED:
        if section and not snapshot.get(section):
            continue  # no front end / no remote executor: no such family
        values = snapshot[section] if section else snapshot
        yield name, kind, help_text, [(None, values.get(key, 0))]


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Render one stats snapshot as Prometheus exposition text."""
    lines: list[str] = []
    for name, kind, help_text, samples in _families(snapshot):
        lines += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        lines += [_sample(name, value, labels) for labels, value in samples]
    stages = snapshot.get("stages") or {}
    if stages:
        lines += [
            "# HELP repro_stage_seconds Pipeline stage latency from the "
            "tracing flight recorder.",
            "# TYPE repro_stage_seconds histogram",
        ]
        lines += _stage_histogram_samples(stages)
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
