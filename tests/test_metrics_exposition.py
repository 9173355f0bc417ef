"""Strict Prometheus text-format 0.0.4 validation of ``/metrics`` output.

:func:`repro.server.metrics.render_prometheus` is consumed by real
scrapers, so this suite enforces the exposition-format contract rather
than spot-checking substrings: every family declares ``# HELP`` and
``# TYPE`` before its samples, every sample line parses (metric name,
escaped labels, float value), histogram families carry cumulative
``le`` buckets ending in ``+Inf`` with ``_sum``/``_count`` conservation,
and the ``repro_stage_seconds`` histograms conserve against the work the
service actually did (one ``bus.publish`` observation per chunk pushed).
The wire pump's coalescing pair — ``repro_server_pump_writes_total`` beside
``repro_server_frames_out_total`` — is scraped from a live server.  For one
hand-built snapshot the exposition is pinned family by family and sample by
sample, and every declared field of a rendered stats record must land in
exactly one family.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields

import pytest

from tests.helpers import make_objects
from repro.core.query import SurgeQuery
from repro.distributed.stats import DistributedStats
from repro.obs import HISTOGRAM_BOUNDS, Tracer, install
from repro.obs.counters import declarations
from repro.server import ServerClient, SurgeServer, http_get
from repro.server.engine import ServerEngine
from repro.server.metrics import escape_label_value, render_prometheus
from repro.service import QuerySpec, SurgeService
from repro.service.bus import QueryStats, ServiceStats
from repro.service.overload import OverloadStats
from repro.streams.watermark import IngestStats

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_NAME})(?:\{{(?P<labels>.*)\}})? (?P<value>\S+)$"
)
_LABEL_RE = re.compile(rf'({_NAME})="((?:[^"\\]|\\.)*)"(?:,|$)')


_ESCAPES = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape(value: str) -> str:
    # One left-to-right pass: sequential str.replace would mis-read the
    # 'n' of an escaped backslash followed by a literal n as a newline.
    return re.sub(
        r"\\(.)", lambda m: _ESCAPES.get(m.group(1), m.group(1)), value
    )


def parse_exposition(text: str):
    """Parse 0.0.4 exposition text, asserting its structure as we go.

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict[str, dict] = {}
    current: str | None = None
    helped: set[str] = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            assert len(parts) >= 4, f"line {line_number}: HELP without text"
            name = parts[2]
            assert name not in helped, f"duplicate HELP for {name}"
            helped.add(name)
            current = None
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, f"line {line_number}: malformed TYPE"
            _, _, name, kind = parts
            assert kind in ("counter", "gauge", "histogram", "summary", "untyped")
            assert name in helped, f"TYPE for {name} before its HELP"
            assert name not in families, f"duplicate TYPE for {name}"
            families[name] = {"type": kind, "samples": []}
            current = name
            continue
        assert not line.startswith("#"), f"line {line_number}: stray comment"
        match = _SAMPLE_RE.match(line)
        assert match, f"line {line_number}: unparseable sample {line!r}"
        name = match.group("name")
        assert current is not None, f"line {line_number}: sample before TYPE"
        family = families[current]
        allowed = {current}
        if family["type"] == "histogram":
            allowed = {current + "_bucket", current + "_sum", current + "_count"}
        elif family["type"] == "summary":
            allowed = {current, current + "_sum", current + "_count"}
        assert name in allowed, (
            f"line {line_number}: sample {name} outside family {current}"
        )
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw is not None:
            consumed = 0
            for pair in _LABEL_RE.finditer(raw):
                labels[pair.group(1)] = _unescape(pair.group(2))
                consumed = pair.end()
            assert consumed == len(raw), (
                f"line {line_number}: malformed labels {raw!r}"
            )
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        else:
            value = float(value_text)  # raises on malformed values
        family["samples"].append((name, labels, value))
    return families


def check_histograms(families: dict) -> int:
    """Assert every histogram family's bucket/sum/count invariants."""
    checked = 0
    for family_name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: dict[tuple, dict] = {}
        for name, labels, value in family["samples"]:
            key = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            entry = series.setdefault(key, {"buckets": [], "sum": None, "count": None})
            if name.endswith("_bucket"):
                assert "le" in labels, f"{family_name}: bucket without le"
                le = (
                    math.inf if labels["le"] == "+Inf" else float(labels["le"])
                )
                entry["buckets"].append((le, value))
            elif name.endswith("_sum"):
                entry["sum"] = value
            else:
                entry["count"] = value
        for key, entry in series.items():
            bounds = [le for le, _ in entry["buckets"]]
            counts = [count for _, count in entry["buckets"]]
            assert bounds == sorted(bounds), f"{family_name}{key}: unsorted le"
            assert bounds and bounds[-1] == math.inf, (
                f"{family_name}{key}: missing +Inf bucket"
            )
            assert counts == sorted(counts), (
                f"{family_name}{key}: buckets not cumulative"
            )
            assert entry["count"] is not None and entry["sum"] is not None
            assert counts[-1] == entry["count"], (
                f"{family_name}{key}: +Inf bucket != _count"
            )
            checked += 1
    return checked


def spec(query_id="q", **query_kwargs) -> QuerySpec:
    defaults = dict(rect_width=1.0, rect_height=1.0, window_length=50.0)
    defaults.update(query_kwargs)
    return QuerySpec(
        query_id=query_id, query=SurgeQuery(**defaults), backend="python"
    )


@pytest.fixture(autouse=True)
def _no_global_tracer():
    install(None)
    yield
    install(None)


def engine_snapshot(service: SurgeService) -> dict:
    engine = ServerEngine(service, chunk_size=64)
    try:
        return engine.submit("stats").result(timeout=30)
    finally:
        engine.stop()


class TestExpositionValidity:
    def render(self, *, traced: bool):
        tracer = Tracer(enabled=True) if traced else None
        service = SurgeService(
            [spec("plain"), spec("weird \"query\"\\n", rect_width=2.0)],
            shards=2,
            tracer=tracer,
        )
        with service:
            for start in range(0, 192, 64):
                service.push_many(make_objects(192, seed=11)[start : start + 64])
            snapshot = engine_snapshot(service)
        return render_prometheus(snapshot), service

    def test_untraced_exposition_is_strictly_valid(self):
        text, _ = self.render(traced=False)
        families = parse_exposition(text)
        assert "repro_service_chunks_pushed_total" in families
        # No tracer → no stage histograms at all.
        assert "repro_stage_seconds" not in families

    def test_traced_exposition_is_strictly_valid_with_histograms(self):
        text, service = self.render(traced=True)
        families = parse_exposition(text)
        stage_family = families["repro_stage_seconds"]
        assert stage_family["type"] == "histogram"
        assert check_histograms(families) >= 3  # one series set per stage

        # Conservation against the service's own counters: exactly one
        # bus.publish span per pushed chunk, one route.bucket per
        # shard-chunk dispatch.
        counts = {
            labels["stage"]: value
            for name, labels, value in stage_family["samples"]
            if name == "repro_stage_seconds_count"
        }
        chunks = next(
            value
            for name, _, value in families["repro_service_chunks_pushed_total"][
                "samples"
            ]
            if name == "repro_service_chunks_pushed_total"
        )
        assert counts["bus.publish"] == chunks == 3
        assert counts["route.bucket"] == chunks * service.n_shards

        # Every declared bound appears as a bucket on every stage series.
        bucket_les = {
            labels["le"]
            for name, labels, _ in stage_family["samples"]
            if name == "repro_stage_seconds_bucket"
            and labels["stage"] == "bus.publish"
        }
        assert bucket_les == {repr(float(b)) for b in HISTOGRAM_BOUNDS} | {"+Inf"}

    def test_label_escaping_round_trips(self):
        text, _ = self.render(traced=False)
        families = parse_exposition(text)
        routed = families["repro_query_objects_routed_total"]["samples"]
        queries = {labels["query"] for _, labels, _ in routed}
        assert 'weird "query"\\n' in queries  # backslash + quotes survived

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"


class TestPumpCoalescingSeries:
    def test_pump_writes_beside_frames_out(self):
        chunks, queries = 6, 3
        tracer = Tracer(enabled=True)
        service = SurgeService(
            [spec(f"q{index}") for index in range(queries)], tracer=tracer
        )
        server = SurgeServer(
            service, port=0, metrics_port=0, chunk_size=16
        ).start_background()
        try:
            with ServerClient("127.0.0.1", server.port, timeout=30) as subscriber:
                subscriber.subscribe(maxsize=256)
                with ServerClient("127.0.0.1", server.port, timeout=30) as feeder:
                    feeder.ingest(make_objects(16 * chunks, seed=5))
                    for _ in range(chunks * queries):
                        subscriber.recv_result()
                    server_stats = feeder.stats()["server"]
                status, text = http_get(
                    "127.0.0.1", server.metrics_port, "/metrics"
                )
        finally:
            server.drain(timeout=30)
            service.close()
        assert status == 200
        families = parse_exposition(text)
        writes_family = families["repro_server_pump_writes_total"]
        assert writes_family["type"] == "counter"
        ((_, _, writes),) = writes_family["samples"]
        ((_, _, frames_out),) = families["repro_server_frames_out_total"]["samples"]
        pushed = chunks * queries
        # Every pushed frame left in a pump write; a write carries at least
        # one, so frames ÷ writes (the coalescing factor) is >= 1.
        assert 1 <= writes <= pushed < frames_out
        assert server_stats["pump_writes_total"] == writes
        # One server.pump span per write, each sized in frames and bytes.
        pump_spans = [s for s in tracer.recorder.spans() if s[0] == "server.pump"]
        assert len(pump_spans) == writes
        assert sum(span[5]["frames"] for span in pump_spans) == pushed
        assert all(span[5]["bytes"] > 0 for span in pump_spans)


class TestHistogramChecker:
    def test_rejects_non_cumulative_buckets(self):
        bad = (
            "# HELP h x\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\n"
            "h_count 3\n"
        )
        with pytest.raises(AssertionError, match="not cumulative"):
            check_histograms(parse_exposition(bad))

    def test_rejects_inf_count_mismatch(self):
        bad = (
            "# HELP h x\n"
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\n"
            "h_count 4\n"
        )
        with pytest.raises(AssertionError, match="_count"):
            check_histograms(parse_exposition(bad))

    def test_rejects_samples_before_type(self):
        with pytest.raises(AssertionError, match="before TYPE"):
            parse_exposition("m 1\n")


# ----------------------------------------------------------------------
# The exposition pinned sample by sample for one hand-built snapshot
# ----------------------------------------------------------------------
_WEIRD = 'b "x"\\n'


def pinned_snapshot(*, distributed: bool, stages: bool) -> dict:
    """A stats snapshot shaped as ``ServerEngine._snapshot_stats`` builds
    it (plus the front end's ``server`` section), every value distinct so a
    family reading the wrong key shows."""
    snapshot = {
        "service": {
            "objects_pushed": 1200,
            "chunks_pushed": 19,
            "object_query_pairs": 2400,
            "wall_seconds": 1.25,
            "pairs_per_second": 1920.0,
        },
        "queries": {
            "a": {
                "objects_routed": 1100,
                "chunks_processed": 17,
                "busy_seconds": 0.5,
                "last_lag_seconds": 0.002,
                "max_lag_seconds": 0.0125,
                "dropped_results": 3,
                "chunks_shed": 2,
            },
            _WEIRD: {
                "objects_routed": 900,
                "chunks_processed": 18,
                "busy_seconds": 0.375,
                "last_lag_seconds": 0.003,
                "max_lag_seconds": 0.0625,
                "dropped_results": 0,
                "chunks_shed": 1,
            },
        },
        "ingest": {
            "reordered": 11,
            "late_dropped": 12,
            "duplicates_seen": 13,
            "quarantined": 14,
            "subscriber_errors": 15,
            "force_released": 16,
            "spill_errors": 17,
            "peak_buffered": 18,
        },
        "overload": {
            "degraded": True,
            "entered_degraded": 21,
            "exited_degraded": 20,
            "chunks_shed": 22,
            "updates_shed": 23,
            "checkpoints_deferred": 24,
            "compactions": 25,
            "queries_compacted": 26,
            "max_depth_chunks": 3.5,
        },
        "degraded": True,
        "queue_depth_chunks": 2.25,
        "queued_ingest_batches": 4,
        "ingest_rejected": 5,
        "chunk_offset": 1200,
        "chunk_index": 19,
        "stream_time": 77.5,
        "subscriptions": [
            {
                "name": "dash",
                "policy": "drop_oldest",
                "maxsize": 8,
                "offered": 40,
                "delivered": 30,
                "dropped": 6,
                "depth": 4,
                "peak_depth": 8,
            },
            {
                "name": None,
                "policy": "block",
                "maxsize": 4,
                "offered": 7,
                "delivered": 5,
                "dropped": 0,
                "depth": 2,
                "peak_depth": 3,
            },
        ],
        "stages": None,
        "checkpoint_prune_errors": 2,
        "distributed": None,
        "server": {
            "connections": 3,
            "subscribers": 1,
            "connections_total": 9,
            "frames_in_total": 31,
            "frames_out_total": 57,
            "pump_writes_total": 29,
            "ingest_rejected_total": 5,
            "listen": "127.0.0.1:7000",
        },
    }
    if distributed:
        snapshot["distributed"] = {
            "rpc_retries": 41,
            "rpc_timeouts": 42,
            "workers_lost": 43,
            "shards_failed_over": 44,
            "failover_seconds": 0.75,
            "workers_joined": 45,
            "shards_migrated": 46,
            "heartbeats_sent": 47,
            "heartbeat_misses": 48,
            "replies_discarded": 49,
            "workers_alive": 2,
            "workers_total": 5,
            "ledger_depth": 6,
        }
    if stages:
        buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        buckets[0], buckets[3], buckets[-1] = 2, 5, 1
        snapshot["stages"] = {
            "bus.publish": {
                "count": 8,
                "total_seconds": 0.5,
                "min_seconds": 1e-6,
                "max_seconds": 20.0,
                "buckets": buckets,
            },
            "route.bucket": {
                "count": 0,
                "total_seconds": 0.0,
                "min_seconds": 0.0,
                "max_seconds": 0.0,
                "buckets": [0] * (len(HISTOGRAM_BOUNDS) + 1),
            },
        }
    return snapshot


def _one(kind: str, value) -> tuple:
    return kind, [({}, value)]


def _per_query(kind: str, a, weird) -> tuple:
    return kind, [({"query": "a"}, a), ({"query": _WEIRD}, weird)]


def _per_subscription(kind: str, dash, second) -> tuple:
    return kind, [
        ({"subscription": "dash", "policy": "drop_oldest"}, dash),
        ({"subscription": "sub1", "policy": "block"}, second),
    ]


#: family -> (TYPE, [(labels, value)]) for ``pinned_snapshot`` without its
#: optional sections.
PINNED_FAMILIES = {
    "repro_service_objects_pushed_total": _one("counter", 1200),
    "repro_service_chunks_pushed_total": _one("counter", 19),
    "repro_service_object_query_pairs_total": _one("counter", 2400),
    "repro_service_wall_seconds_total": _one("counter", 1.25),
    "repro_ingest_reordered_total": _one("counter", 11),
    "repro_ingest_late_dropped_total": _one("counter", 12),
    "repro_ingest_duplicates_seen_total": _one("counter", 13),
    "repro_ingest_quarantined_total": _one("counter", 14),
    "repro_ingest_subscriber_errors_total": _one("counter", 15),
    "repro_ingest_force_released_total": _one("counter", 16),
    "repro_ingest_spill_errors_total": _one("counter", 17),
    "repro_ingest_peak_buffered": _one("gauge", 18),
    "repro_overload_degraded": _one("gauge", 1),
    "repro_overload_entered_degraded_total": _one("counter", 21),
    "repro_overload_exited_degraded_total": _one("counter", 20),
    "repro_overload_chunks_shed_total": _one("counter", 22),
    "repro_overload_updates_shed_total": _one("counter", 23),
    "repro_overload_checkpoints_deferred_total": _one("counter", 24),
    "repro_overload_compactions_total": _one("counter", 25),
    "repro_overload_queries_compacted_total": _one("counter", 26),
    "repro_overload_max_depth_chunks": _one("gauge", 3.5),
    "repro_overload_queue_depth_chunks": _one("gauge", 2.25),
    "repro_query_objects_routed_total": _per_query("counter", 1100, 900),
    "repro_query_chunks_processed_total": _per_query("counter", 17, 18),
    "repro_query_busy_seconds_total": _per_query("counter", 0.5, 0.375),
    "repro_query_last_lag_seconds": _per_query("gauge", 0.002, 0.003),
    "repro_query_max_lag_seconds": _per_query("gauge", 0.0125, 0.0625),
    "repro_query_dropped_results_total": _per_query("counter", 3, 0),
    "repro_query_chunks_shed_total": _per_query("counter", 2, 1),
    "repro_subscription_offered_total": _per_subscription("counter", 40, 7),
    "repro_subscription_delivered_total": _per_subscription("counter", 30, 5),
    "repro_subscription_dropped_total": _per_subscription("counter", 6, 0),
    "repro_subscription_depth": _per_subscription("gauge", 4, 2),
    "repro_server_connections": _one("gauge", 3),
    "repro_server_subscribers": _one("gauge", 1),
    "repro_server_connections_total": _one("counter", 9),
    "repro_server_frames_in_total": _one("counter", 31),
    "repro_server_frames_out_total": _one("counter", 57),
    "repro_server_pump_writes_total": _one("counter", 29),
    "repro_server_ingest_rejected_total": _one("counter", 5),
    "repro_server_queued_ingest_batches": _one("gauge", 4),
    "repro_checkpoint_prune_errors_total": _one("counter", 2),
}

#: The ``distributed`` section's families (remote executor only).
PINNED_REMOTE_FAMILIES = {
    "repro_remote_rpc_retries_total": _one("counter", 41),
    "repro_remote_rpc_timeouts_total": _one("counter", 42),
    "repro_remote_workers_lost_total": _one("counter", 43),
    "repro_remote_shards_failed_over_total": _one("counter", 44),
    "repro_remote_failover_seconds_total": _one("counter", 0.75),
    "repro_remote_workers_joined_total": _one("counter", 45),
    "repro_remote_shards_migrated_total": _one("counter", 46),
    "repro_remote_heartbeats_sent_total": _one("counter", 47),
    "repro_remote_heartbeat_misses_total": _one("counter", 48),
    "repro_remote_replies_discarded_total": _one("counter", 49),
    "repro_remote_workers_alive": _one("gauge", 2),
    "repro_remote_workers_total": _one("gauge", 5),
    "repro_remote_ledger_depth": _one("gauge", 6),
}

#: Stats records rendered field by field, by the section their families
#: are named after.
RENDERED_RECORDS = {
    "service": ServiceStats,
    "ingest": IngestStats,
    "overload": OverloadStats,
    "query": QueryStats,
    "remote": DistributedStats,
}

#: Fields of those records that are not counters: views over other
#: records (rendered under their own section) and the live shed set.
NOT_COUNTERS = {"per_query", "ingest", "overload", "shedding"}


def _stage_samples(stages: dict) -> list:
    samples = []
    for stage, record in stages.items():
        cumulative = 0
        for bound, count in zip(HISTOGRAM_BOUNDS, record["buckets"]):
            cumulative += count
            samples.append(
                (
                    "repro_stage_seconds_bucket",
                    {"stage": stage, "le": repr(float(bound))},
                    cumulative,
                )
            )
        samples += [
            (
                "repro_stage_seconds_bucket",
                {"stage": stage, "le": "+Inf"},
                record["count"],
            ),
            ("repro_stage_seconds_sum", {"stage": stage}, record["total_seconds"]),
            ("repro_stage_seconds_count", {"stage": stage}, record["count"]),
        ]
    return samples


def _sample_key(sample) -> tuple:
    name, labels, value = sample
    return name, tuple(sorted(labels.items())), value


class TestPinnedExposition:
    @pytest.mark.parametrize("distributed", [False, True])
    @pytest.mark.parametrize("stages", [False, True])
    def test_every_family_type_label_and_sample(self, distributed, stages):
        snapshot = pinned_snapshot(distributed=distributed, stages=stages)
        families = parse_exposition(render_prometheus(snapshot))
        expected = dict(PINNED_FAMILIES)
        if distributed:
            expected.update(PINNED_REMOTE_FAMILIES)
        expected_samples = {
            family: [(family, labels, value) for labels, value in samples]
            for family, (_, samples) in expected.items()
        }
        expected_types = {family: kind for family, (kind, _) in expected.items()}
        if stages:
            expected_types["repro_stage_seconds"] = "histogram"
            expected_samples["repro_stage_seconds"] = _stage_samples(
                snapshot["stages"]
            )

        assert {
            (family, record["type"], tuple(sorted(labels)))
            for family, record in families.items()
            for _, labels, _ in record["samples"]
        } == {
            (family, expected_types[family], tuple(sorted(labels)))
            for family, samples in expected_samples.items()
            for _, labels, _ in samples
        }
        assert {family: record["type"] for family, record in families.items()} == (
            expected_types
        )
        for family, samples in expected_samples.items():
            assert sorted(map(_sample_key, families[family]["samples"])) == sorted(
                map(_sample_key, samples)
            ), family
        if stages:
            assert check_histograms(families) == 2

    def test_every_record_field_lands_in_exactly_one_family(self):
        families = parse_exposition(
            render_prometheus(pinned_snapshot(distributed=True, stages=False))
        )
        for section, record in RENDERED_RECORDS.items():
            for spec in fields(record):
                if spec.name in NOT_COUNTERS:
                    continue
                base = f"repro_{section}_{spec.name}"
                landed = [
                    family for family in (base, base + "_total") if family in families
                ]
                assert len(landed) == 1, (section, spec.name, landed)

    def test_the_rendered_fields_are_the_declared_ones(self):
        for record in RENDERED_RECORDS.values():
            assert [name for name, *_ in declarations(record)] == [
                spec.name for spec in fields(record) if spec.name not in NOT_COUNTERS
            ]
