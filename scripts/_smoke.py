"""Subprocess helpers shared by the network smokes.

``server_smoke.py``, ``obs_smoke.py`` and ``remote_smoke.py`` each start
``repro serve`` in a subprocess, wait for the endpoint it announces on
stdout and stop it with SIGTERM.  Every wait has a hard deadline (default
120 s; override with ``SMOKE_TIMEOUT``).  Importing this module also puts
the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

TIMEOUT = float(os.environ.get("SMOKE_TIMEOUT", "120"))


def run_env() -> dict:
    """The environment a ``repro`` subprocess runs the checkout's code with."""
    return dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")


def read_announced_line(proc: subprocess.Popen, prefix: str) -> str:
    """Read stdout lines until one starts with ``prefix`` (hard deadline)."""
    assert proc.stdout is not None
    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before printing {prefix!r} (rc={proc.poll()})"
            )
        if line.startswith(prefix):
            return line.strip()
    raise AssertionError(f"server did not print {prefix!r} in time")


def parse_endpoint(line: str, prefix: str) -> tuple[str, int]:
    """``{prefix}HOST:PORT ...`` -> (HOST, PORT)."""
    if not line.startswith(prefix):
        raise AssertionError(f"expected a {prefix!r} line, got {line!r}")
    host, port = line[len(prefix):].split(" ", 1)[0].rsplit(":", 1)
    return host, int(port)


def parse_listening_line(line: str) -> tuple[int, int | None]:
    """``listening on H:P (metrics http://H:MP/metrics)`` -> (P, MP)."""
    _, port = parse_endpoint(line, "listening on ")
    metrics_port = None
    if "(metrics http://" in line:
        metrics_url = line.split("(metrics http://", 1)[1].rstrip(")\n")
        metrics_port = int(metrics_url.split("/", 1)[0].rsplit(":", 1)[1])
    return port, metrics_port


def terminate(proc: subprocess.Popen) -> tuple[str, str]:
    """SIGTERM + graceful-exit check; returns (stdout, stderr)."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, err = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError("server ignored SIGTERM (killed)")
    if proc.returncode != 0:
        raise AssertionError(f"server exited {proc.returncode} on SIGTERM\n{err}")
    if "drained:" not in err:
        raise AssertionError(f"no drain report on stderr:\n{err}")
    return out, err
