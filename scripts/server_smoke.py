"""End-to-end smoke for the network tier: ``repro serve --listen``.

Drives a real server **subprocess** through the full deployment story and
fails loudly if any step breaks:

1. start ``repro serve --listen 127.0.0.1:0 --metrics 127.0.0.1:0`` with a
   queries file, a checkpoint dir, and the disorder-tolerant tier on;
2. over the wire: register one extra query (the full ``QuerySpec`` as
   JSON), ingest the first half of a seeded stream, subscribe on a second
   connection and receive pushed result frames — the first one within
   ``PUSH_LIMIT_MS`` of the ingest ack: delivery is woken by the publish,
   not found by a poll — and ``GET /metrics``;
3. SIGTERM the server mid-stream: it must exit 0, report ``drained:`` on
   stderr, and leave a final checkpoint (taken *without* flushing the
   reorder buffer);
4. restart with ``--resume`` and **no** ``--listen`` — the endpoint
   recorded in the checkpoint manifest is re-served — then ingest the
   second half, flush, and fetch final results;
5. compare those results **bit-identically** against an in-process
   reference that fed both halves into one uninterrupted service: the
   SIGTERM must be invisible in the final scores (exactly-once ingest
   across the restart).

Every subprocess interaction has a hard deadline (default 120 s; override
with ``SMOKE_TIMEOUT``): a hung server is a failure, not a hung CI job.

Usage::

    python scripts/server_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
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
from repro.server.protocol import encode_result
from repro.service import QuerySpec, SurgeService
from repro.streams.faults import FaultInjector
from repro.streams.objects import SpatialObject

CHUNK_SIZE = 16
MAX_LATENESS = 2.0
TOTAL = 240
SEED = 1337
#: Ingest ack -> first pushed frame held by the subscriber.  Milliseconds
#: when the publish wakes the pump; up to 250 ms if it only polls.
PUSH_LIMIT_MS = 100.0


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


def base_queries() -> list[dict]:
    return [
        {"id": "storms", "keyword": "storm", "rect": [1.0, 1.0], "window": 40,
         "backend": "python"},
        {"id": "city-wide", "rect": [1.5, 1.5], "window": 30,
         "backend": "python"},
    ]


def extra_spec() -> QuerySpec:
    return QuerySpec.from_dict(
        {"id": "wire-extra", "keyword": "festival", "rect": [1.2, 1.2],
         "window": 35, "backend": "python", "priority": 2}
    )


def serve_command(*args: str) -> list[str]:
    return [sys.executable, "-u", "-m", "repro.cli", "serve", *args]


def reference_results(arrivals: list[SpatialObject]) -> dict:
    """One uninterrupted in-process run over the full arrival sequence."""
    specs = [QuerySpec.from_dict(record) for record in base_queries()]
    specs.append(extra_spec())
    with SurgeService(specs, max_lateness=MAX_LATENESS) as service:
        for _ in service.feed(arrivals, CHUNK_SIZE):
            pass
        for _ in service.flush_pending(CHUNK_SIZE):
            pass
        return {
            query_id: encode_result(result)
            for query_id, result in service.results().items()
        }


def main() -> int:
    workdir = Path(REPO_ROOT / ".server-smoke")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir: Path) -> int:
    queries_path = workdir / "queries.json"
    queries_path.write_text(json.dumps(base_queries()))
    checkpoint_dir = workdir / "ckpt"

    clean = make_stream()
    injector = FaultInjector(
        clean, seed=SEED, disorder_fraction=0.15, max_disorder=MAX_LATENESS
    )
    arrivals = injector.materialize()
    half = len(arrivals) // 2
    expected = reference_results(arrivals)

    print(f"server smoke: {len(arrivals)} arrivals, split at {half}, "
          f"chunk={CHUNK_SIZE}, workdir={workdir}")

    # ------------------------------------------------------------------
    # Phase 1: serve, register, ingest h1, subscribe, scrape, SIGTERM.
    # ------------------------------------------------------------------
    server = subprocess.Popen(
        serve_command(
            "--listen", "127.0.0.1:0",
            "--metrics", "127.0.0.1:0",
            "--queries", str(queries_path),
            "--checkpoint-dir", str(checkpoint_dir),
            "--chunk-size", str(CHUNK_SIZE),
            "--max-lateness", str(MAX_LATENESS),
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=run_env(),
    )
    try:
        port, metrics_port = parse_listening_line(read_announced_line(server, "listening on "))
        assert metrics_port is not None, "metrics endpoint missing"

        with ServerClient("127.0.0.1", port, timeout=TIMEOUT) as subscriber:
            subscriber.subscribe(maxsize=4096, queries=["wire-extra"],
                                 name="smoke-subscriber")
            with ServerClient("127.0.0.1", port, timeout=TIMEOUT) as admin:
                ack = admin.register(extra_spec())
                assert ack["queries"] == 3, ack
                ack = admin.ingest(arrivals[:half])
                acked_at = time.perf_counter()
                assert ack["accepted"] == half, ack
                assert ack["chunks_dispatched"] > 0, ack
            frame = subscriber.recv_result()
            push_ms = 1e3 * (time.perf_counter() - acked_at)
            assert frame["query_id"] == "wire-extra", frame
        print(f"  phase 1: ingested {half}, subscriber saw chunk "
              f"{frame['chunk_index']} {push_ms:.1f} ms after the ack")
        assert push_ms <= PUSH_LIMIT_MS, (
            f"first pushed frame trailed the ingest ack by {push_ms:.1f} ms "
            f"(limit {PUSH_LIMIT_MS:.0f} ms): is the pump polling again?"
        )

        status, body = http_get("127.0.0.1", metrics_port, "/metrics",
                                timeout=TIMEOUT)
        assert status == 200, (status, body[:200])
        for needle in ("repro_service_objects_pushed_total",
                       "repro_overload_degraded",
                       'repro_query_objects_routed_total{query="wire-extra"}'):
            assert needle in body, f"{needle} missing from /metrics"
        print(f"  phase 1: /metrics ok ({len(body.splitlines())} lines)")

        _, err = terminate(server)
        assert "final checkpoint" in err, err
        print("  phase 1: SIGTERM -> drained with final checkpoint")
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()

    # ------------------------------------------------------------------
    # Phase 2: --resume re-serves the recorded endpoint; ingest the rest.
    # ------------------------------------------------------------------
    resumed = subprocess.Popen(
        serve_command(
            "--resume",
            "--checkpoint-dir", str(checkpoint_dir),
            "--chunk-size", str(CHUNK_SIZE),
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=run_env(),
    )
    try:
        resumed_port, _ = parse_listening_line(
            read_announced_line(resumed, "listening on ")
        )
        assert resumed_port == port, (
            f"resume re-served {resumed_port}, checkpoint recorded {port}"
        )
        with ServerClient("127.0.0.1", resumed_port, timeout=TIMEOUT) as admin:
            admin.ingest(arrivals[half:])
            admin.flush()
            wire_results = admin.results()
        if wire_results != expected:
            raise AssertionError(
                "results after SIGTERM + --resume diverge from the "
                f"uninterrupted in-process reference:\n"
                f"  wire: {wire_results}\n  reference: {expected}"
            )
        print(f"  phase 2: resumed on :{resumed_port}, final results "
              f"bit-identical across the restart ({len(wire_results)} queries)")
        terminate(resumed)
    finally:
        if resumed.poll() is None:
            resumed.kill()
            resumed.communicate()

    print("server smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
