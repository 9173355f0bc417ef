"""End-to-end smoke for the distributed shard tier: ``serve --executor remote``.

Drives the full deployment story with **external** worker processes and a
staged worker death, failing loudly if any step breaks:

1. start ``repro serve --executor remote --workers 3 --shards 4`` with a
   queries file and a checkpoint dir; read the ``workers on HOST:PORT``
   announcement from stdout;
2. dial in three external ``repro worker --connect HOST:PORT`` processes
   (the elastic-membership path — nothing is spawned by the coordinator);
   the server only prints ``listening on ...`` once the fleet has joined;
3. over the wire: ingest the first half of a seeded stream, then
   **SIGKILL one worker** and ingest the second half — the coordinator
   must fail the dead worker's shards over to the survivors and keep
   serving without an error surfacing to the client;
4. fetch final results and compare them **bit-identically** against an
   uninterrupted in-process serial run over the same stream: the worker
   death must be invisible in the scores;
5. SIGTERM the server: it must exit 0 and print the ``remote:`` counter
   summary on stderr with ``workers_joined`` ≥ 3, ``workers_lost`` ≥ 1 and
   ``shards_failed_over`` ≥ 1 — the evidence the kill really exercised
   failover — and the surviving workers must exit 0 on the coordinator's
   ``bye``.

Every subprocess interaction has a hard deadline (default 120 s; override
with ``SMOKE_TIMEOUT``): a hung coordinator or worker is a failure, not a
hung CI job.

Usage::

    python scripts/remote_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from _smoke import (
    REPO_ROOT,
    TIMEOUT,
    parse_endpoint,
    parse_listening_line,
    read_announced_line,
    run_env,
    terminate,
)
from repro.server.client import ServerClient
from repro.server.protocol import encode_result
from repro.service import QuerySpec, SurgeService
from repro.streams.objects import SpatialObject

CHUNK_SIZE = 16
TOTAL = 320
SEED = 20180416
WORKERS = 3
SHARDS = 4  # > WORKERS: every worker hosts at least one shard


def make_stream() -> list[SpatialObject]:
    rng = random.Random(SEED)
    keywords = ("storm", "festival", "market")
    return [
        SpatialObject(
            x=rng.uniform(0.0, 4.0),
            y=rng.uniform(0.0, 4.0),
            timestamp=float(index),
            weight=rng.uniform(0.5, 5.0),
            object_id=index,
            attributes={"keywords": (keywords[index % 3],)},
        )
        for index in range(TOTAL)
    ]


def queries() -> list[dict]:
    return [
        {"id": "storms", "keyword": "storm", "rect": [1.0, 1.0], "window": 40,
         "backend": "python"},
        {"id": "festivals", "keyword": "festival", "rect": [1.2, 1.2],
         "window": 35, "backend": "python"},
        {"id": "markets", "keyword": "market", "rect": [0.8, 0.8], "window": 50,
         "backend": "python"},
        {"id": "city-wide", "rect": [1.5, 1.5], "window": 30,
         "backend": "python"},
    ]


def parse_remote_summary(stderr: str) -> dict:
    """The ``remote: k=v ...`` stderr line -> {k: float}."""
    # The executor's warning log lines share the "remote: " prefix; the
    # counter summary is the one that leads with workers_joined=.
    for line in stderr.splitlines():
        if line.startswith("remote: workers_joined="):
            return {
                key: float(value)
                for key, value in (
                    pair.split("=", 1) for pair in line[len("remote: "):].split()
                )
            }
    raise AssertionError(f"no 'remote:' counter summary on stderr:\n{stderr}")


def reference_results(stream: list[SpatialObject]) -> dict:
    """One uninterrupted in-process serial run over the full stream."""
    specs = [QuerySpec.from_dict(record) for record in queries()]
    with SurgeService(specs, shards=SHARDS) as service:
        for _ in service.run(stream, CHUNK_SIZE):
            pass
        return {
            query_id: encode_result(result)
            for query_id, result in service.results().items()
        }


def main() -> int:
    workdir = Path(REPO_ROOT / ".remote-smoke")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir: Path) -> int:
    queries_path = workdir / "queries.json"
    queries_path.write_text(json.dumps(queries()))

    stream = make_stream()
    half = len(stream) // 2
    expected = reference_results(stream)
    print(f"remote smoke: {len(stream)} objects, split at {half}, "
          f"{WORKERS} external workers, {SHARDS} shards, workdir={workdir}")

    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--executor", "remote",
         "--workers", str(WORKERS),
         "--shards", str(SHARDS),
         "--listen", "127.0.0.1:0",
         "--queries", str(queries_path),
         "--checkpoint-dir", str(workdir / "ckpt"),
         "--chunk-size", str(CHUNK_SIZE)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=run_env(),
    )
    workers: list[subprocess.Popen] = []
    try:
        # The coordinator announces its worker endpoint first, then blocks
        # until the fleet joins — so the workers dial in *between* the two
        # stdout lines.
        fleet_host, fleet_port = parse_endpoint(
            read_announced_line(server, "workers on "), "workers on "
        )
        for index in range(WORKERS):
            workers.append(subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "worker",
                 "--connect", f"{fleet_host}:{fleet_port}",
                 "--name", f"ext-{index}",
                 "--connect-retries", "30"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                env=run_env(),
            ))
        port, _ = parse_listening_line(
            read_announced_line(server, "listening on ")
        )
        print(f"  fleet of {WORKERS} joined on {fleet_host}:{fleet_port}, "
              f"serving on :{port}")

        with ServerClient("127.0.0.1", port, timeout=TIMEOUT) as client:
            ack = client.ingest(stream[:half])
            assert ack["accepted"] == half, ack

            victim = workers[0]
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=TIMEOUT)
            print(f"  killed worker ext-0 (pid {victim.pid}) after "
                  f"{half} objects")

            ack = client.ingest(stream[half:])
            assert ack["accepted"] == len(stream) - half, ack
            client.flush()
            wire_results = client.results()

        if wire_results != expected:
            raise AssertionError(
                "results after the worker kill diverge from the "
                f"uninterrupted serial reference:\n"
                f"  wire: {wire_results}\n  reference: {expected}"
            )
        print(f"  final results bit-identical across the failover "
              f"({len(wire_results)} queries)")

        _, err = terminate(server)
        summary = parse_remote_summary(err)
        assert summary["workers_joined"] >= WORKERS, summary
        assert summary["workers_lost"] >= 1, summary
        assert summary["shards_failed_over"] >= 1, summary
        print("  SIGTERM -> drained; remote counters: "
              + ", ".join(f"{k}={v:g}" for k, v in sorted(summary.items())))

        # The coordinator's bye must let the survivors exit cleanly.
        for index, worker in enumerate(workers[1:], start=1):
            try:
                worker.communicate(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                worker.kill()
                raise AssertionError(f"worker ext-{index} ignored bye (killed)")
            if worker.returncode != 0:
                raise AssertionError(
                    f"worker ext-{index} exited {worker.returncode}"
                )
        print(f"  {len(workers) - 1} surviving workers exited 0 on bye")
    finally:
        for proc in [server, *workers]:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    print("remote smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
