"""Graceful drain on SIGINT/SIGTERM through real ``repro serve`` processes.

The contract (both serve modes): a termination signal never kills the
process mid-chunk.  File replay finishes the in-flight chunk, stops
consuming, takes the final checkpoint, and prints a ``final results:``
block that is **exactly** a clean run over the consumed prefix — signalled
and unsignalled runs are indistinguishable given the same consumed input.
Network mode stops accepting, settles in-flight work, and exits 0.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.datasets.io import write_csv_stream
from repro.streams.objects import SpatialObject

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
TIMEOUT = 120

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or os.name == "nt",
    reason="POSIX signals required",
)


def make_stream_file(path: Path, count: int = 6000) -> list[SpatialObject]:
    rng = random.Random(31)
    keywords = ("concert", "parade")
    objects = [
        SpatialObject(
            x=rng.uniform(0.0, 5.0),
            y=rng.uniform(0.0, 5.0),
            timestamp=float(index),
            weight=rng.uniform(0.5, 5.0),
            object_id=index,
            attributes={"keywords": (keywords[index % 2],)},
        )
        for index in range(count)
    ]
    write_csv_stream(path, objects)
    return objects


def make_queries_file(path: Path) -> None:
    path.write_text(
        json.dumps(
            [
                {"id": "concerts", "keyword": "concert", "rect": [1.0, 1.0],
                 "window": 30, "backend": "python"},
                {"id": "city-wide", "rect": [1.5, 1.5], "window": 25,
                 "backend": "python"},
            ]
        )
    )


def serve_command(*args: str) -> list[str]:
    return [sys.executable, "-u", "-m", "repro.cli", "serve", *args]


def run_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")


def final_results_block(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    assert "final results:" in lines, f"no final block in:\n{stdout[-2000:]}"
    return lines[lines.index("final results:") :]


class TestFileReplayDrain:
    def test_sigterm_equals_clean_run_over_consumed_prefix(self, tmp_path):
        stream_path = tmp_path / "stream.csv"
        queries_path = tmp_path / "queries.json"
        objects = make_stream_file(stream_path)
        make_queries_file(queries_path)
        checkpoint_dir = tmp_path / "ckpt"

        victim = subprocess.Popen(
            serve_command(
                str(stream_path),
                "--queries", str(queries_path),
                "--chunk-size", "50",
                "--report-every", "50",
                "--checkpoint-dir", str(checkpoint_dir),
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=run_env(),
        )
        # Wait for the first per-chunk report so the signal provably lands
        # mid-replay, then ask for a graceful drain.
        assert victim.stdout is not None
        deadline = time.monotonic() + TIMEOUT
        saw_report = False
        while time.monotonic() < deadline:
            line = victim.stdout.readline()
            if not line:
                break
            if line.startswith("["):
                saw_report = True
                break
        assert saw_report, "victim produced no report before the timeout"
        victim.send_signal(signal.SIGTERM)
        try:
            remaining_out, err = victim.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            victim.kill()
            raise
        assert victim.returncode == 0, err
        assert "draining: stopping after" in err
        marker = err.split("draining: stopping after", 1)[1]
        chunks_consumed = int(marker.split("chunks", 1)[0].strip())
        consumed = int(marker.split("(", 1)[1].split(" objects", 1)[0])
        assert 0 < consumed < len(objects)
        assert chunks_consumed * 50 == consumed
        drained_block = final_results_block(line + remaining_out)

        # A clean, unsignalled run over exactly the consumed prefix must
        # print the identical final block.
        prefix_path = tmp_path / "prefix.csv"
        write_csv_stream(prefix_path, objects[:consumed])
        clean = subprocess.run(
            serve_command(
                str(prefix_path),
                "--queries", str(queries_path),
                "--chunk-size", "50",
                "--report-every", "50",
            ),
            capture_output=True,
            text=True,
            env=run_env(),
            timeout=TIMEOUT,
        )
        assert clean.returncode == 0, clean.stderr
        assert drained_block == final_results_block(clean.stdout)

        # The drain also left a final checkpoint behind: a --resume of the
        # full stream replays the tail exactly once and completes.
        resumed = subprocess.run(
            serve_command(
                str(stream_path),
                "--queries", str(queries_path),
                "--chunk-size", "50",
                "--report-every", "50",
                "--checkpoint-dir", str(checkpoint_dir),
                "--resume",
            ),
            capture_output=True,
            text=True,
            env=run_env(),
            timeout=TIMEOUT,
        )
        assert resumed.returncode == 0, resumed.stderr
        full = subprocess.run(
            serve_command(
                str(stream_path),
                "--queries", str(queries_path),
                "--chunk-size", "50",
                "--report-every", "50",
            ),
            capture_output=True,
            text=True,
            env=run_env(),
            timeout=TIMEOUT,
        )
        assert full.returncode == 0, full.stderr
        assert final_results_block(resumed.stdout) == final_results_block(
            full.stdout
        )


class TestNetworkServeDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        queries_path = tmp_path / "queries.json"
        make_queries_file(queries_path)
        victim = subprocess.Popen(
            serve_command(
                "--listen", "127.0.0.1:0",
                "--queries", str(queries_path),
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=run_env(),
        )
        assert victim.stdout is not None
        line = victim.stdout.readline()
        assert line.startswith("listening on 127.0.0.1:"), line
        victim.send_signal(signal.SIGTERM)
        try:
            _, err = victim.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            victim.kill()
            raise
        assert victim.returncode == 0, err
        assert "drained:" in err


class TestHandlersRestored:
    def test_strict_refusal_exits_one_and_restores_the_handlers(
        self, tmp_path, capsys
    ):
        """A strict serve refusing a malformed record is a one-line error
        with exit code 1, and the caller's signal handlers come back."""
        from dataclasses import replace

        from repro.cli import main

        stream_path = tmp_path / "stream.csv"
        objects = make_stream_file(stream_path, count=200)
        objects[120] = replace(objects[120], x=float("nan"))
        write_csv_stream(stream_path, objects)
        queries_path = tmp_path / "queries.json"
        make_queries_file(queries_path)
        before = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
        code = main(
            ["serve", str(stream_path), "--queries", str(queries_path),
             "--chunk-size", "16"]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "malformed record in strict mode" in err[0]
        assert {sig: signal.getsignal(sig) for sig in before} == before
