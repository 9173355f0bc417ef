"""End-to-end smoke for the tracing tier: a traced ``repro serve``.

Drives a real traced server **subprocess** through the observability
story and fails loudly if any step breaks:

1. start ``repro serve --listen 127.0.0.1:0 --metrics 127.0.0.1:0`` with
   ``--trace-dir`` (Chrome-trace export on exit), ``--slow-chunk 0``
   (every dispatch is "slow", so the detector and its structured warning
   fire deterministically) and ``--log-json``;
2. over the wire: ingest a seeded stream, then assert the ``stats``
   frame carries a ``stages`` section whose ``bus.publish`` count equals
   the chunks actually dispatched, and that ``GET /metrics`` exposes
   ``repro_stage_seconds`` histograms with a consistent ``+Inf`` bucket;
3. SIGTERM the server: it must exit 0, report ``drained:``, emit
   machine-parseable JSON log lines for the slow-chunk warnings, and
   write ``trace.json``;
4. load the trace: valid JSON, per-shard lanes present, spans properly
   nested within each lane, and per-stage totals bounded by the
   service's dispatch wall time (conservation — a span tree never
   accounts for more time than actually passed).

Every subprocess interaction has a hard deadline (default 120 s;
override with ``SMOKE_TIMEOUT``).

Usage::

    python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

from _smoke import (
    REPO_ROOT,
    TIMEOUT,
    parse_listening_line,
    read_announced_line,
    run_env,
    terminate,
)
from repro.server.client import ServerClient, http_get
from repro.streams.objects import SpatialObject

CHUNK_SIZE = 32
TOTAL = 320
SEED = 20180416
#: Stages every traced serve run must record at least once.
REQUIRED_STAGES = ("route.bucket", "window.observe", "settle", "bus.publish")


def make_stream() -> list[SpatialObject]:
    rng = random.Random(SEED)
    keywords = ("storm", "festival")
    return [
        SpatialObject(
            x=rng.uniform(0.0, 4.0),
            y=rng.uniform(0.0, 4.0),
            timestamp=float(index),
            weight=rng.uniform(0.5, 5.0),
            object_id=index,
            attributes={"keywords": (keywords[index % 2],)},
        )
        for index in range(TOTAL)
    ]


def queries() -> list[dict]:
    return [
        {"id": "storms", "keyword": "storm", "rect": [1.0, 1.0], "window": 40,
         "backend": "python"},
        {"id": "city-wide", "rect": [1.5, 1.5], "window": 30,
         "backend": "python"},
    ]


def check_stats_frame(stats: dict, chunks_dispatched: int) -> None:
    stages = stats.get("stages")
    assert stages, f"stats frame has no stages section: {sorted(stats)}"
    for stage in REQUIRED_STAGES:
        assert stage in stages, f"stage {stage} missing from stats: {sorted(stages)}"
        record = stages[stage]
        assert record["count"] == sum(record["buckets"]), (
            f"{stage}: histogram buckets do not sum to the count"
        )
    publishes = stages["bus.publish"]["count"]
    assert publishes == chunks_dispatched, (
        f"bus.publish count {publishes} != chunks dispatched {chunks_dispatched}"
    )
    # The wire tier records its own spans (tracer installed process-wide).
    assert "wire.decode" in stages, sorted(stages)
    # Conservation: per-dispatch stage time can never exceed the wall time
    # the service measured for those dispatches (all four run inside it).
    wall = stats["service"]["wall_seconds"]
    inside = sum(stages[stage]["total_seconds"] for stage in REQUIRED_STAGES)
    assert 0.0 < inside <= wall, (
        f"stage totals {inside:.6f}s exceed dispatch wall {wall:.6f}s"
    )


def check_metrics(body: str) -> None:
    assert "# TYPE repro_stage_seconds histogram" in body, "histogram family missing"
    counts: dict[str, float] = {}
    inf_buckets: dict[str, float] = {}
    for line in body.splitlines():
        if line.startswith("repro_stage_seconds_count{"):
            stage = line.split('stage="', 1)[1].split('"', 1)[0]
            counts[stage] = float(line.rsplit(" ", 1)[1])
        elif line.startswith("repro_stage_seconds_bucket{") and 'le="+Inf"' in line:
            stage = line.split('stage="', 1)[1].split('"', 1)[0]
            inf_buckets[stage] = float(line.rsplit(" ", 1)[1])
    assert counts, "no repro_stage_seconds_count samples"
    for stage, count in counts.items():
        assert inf_buckets.get(stage) == count, (
            f"{stage}: +Inf bucket {inf_buckets.get(stage)} != count {count}"
        )
    for stage in REQUIRED_STAGES:
        assert stage in counts, f"{stage} missing from /metrics"


def check_json_logs(stderr: str) -> int:
    """Every slow-chunk warning must be one parseable JSON object."""
    events = []
    for line in stderr.splitlines():
        if not line.startswith("{"):
            continue
        payload = json.loads(line)  # malformed JSON raises: that is the test
        assert {"ts", "level", "logger", "event"} <= set(payload), payload
        if "slow chunk" in payload["event"]:
            assert payload["level"] == "WARNING", payload
            assert payload["wall_seconds"] > 0.0, payload
            assert payload["threshold_seconds"] == 0.0, payload
            events.append(payload)
    assert events, f"no slow-chunk JSON log lines on stderr:\n{stderr[:2000]}"
    # The counted warning: the last line's running count covers them all.
    assert events[-1]["slow_chunks"] == len(events), events[-1]
    return len(events)


def check_trace_file(path: Path, shards: int) -> None:
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    lanes = {
        event["tid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M"
    }
    assert complete, "trace has no complete events"
    for shard in range(shards):
        assert f"shard{shard}" in lanes.values(), (
            f"shard{shard} lane missing: {sorted(lanes.values())}"
        )
    stages = {event["name"] for event in complete}
    for stage in REQUIRED_STAGES:
        assert stage in stages, f"{stage} missing from the trace: {sorted(stages)}"

    # Nesting: within each lane, spans must form a proper tree — a span
    # overlapping its predecessor must be fully contained in it (the
    # sweep spans sit inside settle; siblings never interleave).
    epsilon = 1.0  # µs of float slack
    for tid in {event["tid"] for event in complete}:
        stack: list[float] = []
        for event in sorted(
            (e for e in complete if e["tid"] == tid),
            key=lambda e: (e["ts"], -e["dur"]),
        ):
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and start >= stack[-1] - epsilon:
                stack.pop()
            if stack:
                assert end <= stack[-1] + epsilon, (
                    f"lane {lanes.get(tid, tid)}: span {event['name']} "
                    f"[{start:.1f}, {end:.1f}] crosses its parent's end "
                    f"{stack[-1]:.1f}"
                )
            stack.append(end)


def main() -> int:
    workdir = Path(REPO_ROOT / ".obs-smoke")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir: Path) -> int:
    queries_path = workdir / "queries.json"
    queries_path.write_text(json.dumps(queries()))
    trace_dir = workdir / "trace"
    shards = 2
    stream = make_stream()

    print(f"obs smoke: {TOTAL} objects, chunk={CHUNK_SIZE}, shards={shards}, "
          f"workdir={workdir}")

    server = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--metrics", "127.0.0.1:0",
            "--queries", str(queries_path),
            "--shards", str(shards),
            "--chunk-size", str(CHUNK_SIZE),
            "--trace-dir", str(trace_dir),
            "--slow-chunk", "0",
            "--log-json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=run_env(),
    )
    try:
        port, metrics_port = parse_listening_line(read_announced_line(server, "listening on "))
        assert metrics_port is not None, "metrics endpoint missing"

        with ServerClient("127.0.0.1", port, timeout=TIMEOUT) as client:
            ack = client.ingest(stream)
            assert ack["accepted"] == TOTAL, ack
            chunks = ack["chunks_dispatched"]
            assert chunks == TOTAL // CHUNK_SIZE, ack
            stats = client.stats()
        check_stats_frame(stats, chunks)
        print(f"  stats frame: stages section ok "
              f"({len(stats['stages'])} stages, {chunks} chunks)")

        status, body = http_get("127.0.0.1", metrics_port, "/metrics",
                                timeout=TIMEOUT)
        assert status == 200, (status, body[:200])
        check_metrics(body)
        print("  /metrics: repro_stage_seconds histograms consistent")

        _, err = terminate(server)
        slow_events = check_json_logs(err)
        print(f"  SIGTERM -> drained; {slow_events} slow-chunk JSON log lines")
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()

    trace_path = trace_dir / "trace.json"
    assert trace_path.exists(), f"{trace_path} was not written on drain"
    check_trace_file(trace_path, shards)
    print(f"  trace: {trace_path.stat().st_size} bytes, lanes + nesting ok")

    print("obs smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
