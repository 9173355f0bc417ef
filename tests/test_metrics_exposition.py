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
``repro_server_frames_out_total`` — is scraped from a live server.
"""

from __future__ import annotations

import math
import re

import pytest

from tests.helpers import make_objects
from repro.core.query import SurgeQuery
from repro.obs import HISTOGRAM_BOUNDS, Tracer, install
from repro.server import ServerClient, SurgeServer, http_get
from repro.server.engine import ServerEngine
from repro.server.metrics import escape_label_value, render_prometheus
from repro.service import QuerySpec, SurgeService

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
