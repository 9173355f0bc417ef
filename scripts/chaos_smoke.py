"""Chaos smoke: SIGKILL a checkpointing ``repro serve`` running under 10%
disorder plus injected poison records, resume it with ``--resume``, and
assert (a) the resumed run reproduces the uninterrupted run bit-for-bit —
including the IngestStats counters — and (b) the tolerant run over the
faulty feed matches a strict run over the pre-sorted clean feed.

This is the robustness contract end to end, through real processes:

* the faulty feed is produced by the shared
  :class:`~repro.streams.faults.FaultInjector` (bounded disorder within the
  ``--max-lateness`` bound, CSV-serialisable poison records), so "10%
  disorder" here means exactly what it means in the unit tests and the
  robustness benchmark;
* the reorder buffer's held-back events are checkpoint state — an
  uncatchable SIGKILL between checkpoints is exactly the case where a
  resume that re-read the raw feed into an *empty* buffer would double- or
  under-deliver around the watermark;
* the ``ingest:`` stdout line (reordered / late_dropped / duplicates_seen /
  quarantined / subscriber_errors) is part of the compared block, so the
  counters must come out of the crash exactly-once too.

A second leg repeats the exercise **under overload**: a flash-crowd feed
drives a prioritised service into counted degraded mode (shedding
low-priority routes, force-releasing the in-flight budget, compacting on a
cadence), the victim is SIGKILLed *while shedding*, and the resumed run
must reproduce the uninterrupted run's ``overload:`` counter line —
entered/exited transitions, chunks shed, compactions, force releases — as
well as its final results, exactly-once.

CI runs it on both dependency legs (``make smoke-chaos``); everything here
is stdlib-only.

If the victim finishes before the kill lands (very fast machine), the
resume is a no-op replay and the parity assertions still run — the smoke
degrades to a resume-after-completion check rather than failing spuriously.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

from repro.datasets.io import write_csv_stream  # noqa: E402
from repro.state.recovery import manifest_path, read_manifest  # noqa: E402
from repro.streams.faults import FaultInjector  # noqa: E402
from repro.streams.objects import SpatialObject  # noqa: E402

TOTAL_OBJECTS = 20_000
CHUNK_SIZE = 200
MAX_LATENESS = 3.0
VOCABULARY = ("concert", "parade", "zika", "festival")
SEED = 20180416
TIMEOUT = 600.0


def make_stream_files(clean_path: Path, faulty_path: Path) -> FaultInjector:
    rng = random.Random(SEED)
    t = 0.0
    objects = []
    for index in range(TOTAL_OBJECTS):
        t += rng.uniform(0.05, 0.35)
        keywords = (rng.choice(VOCABULARY),) if rng.random() < 0.8 else ()
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, 6.0),
                y=rng.uniform(0.0, 6.0),
                timestamp=t,
                weight=rng.uniform(0.5, 8.0),
                object_id=index,
                attributes={"keywords": keywords} if keywords else {},
            )
        )
    injector = FaultInjector(
        objects,
        seed=SEED,
        disorder_fraction=0.10,
        max_disorder=MAX_LATENESS,
        poison_fraction=0.005,
        # Only kinds a CSV round-trip preserves (float('nan') / float('inf')
        # parse back; raw dicts and broken keyword payloads do not).
        poison_kinds=("nan_timestamp", "nan_x", "inf_weight"),
    )
    write_csv_stream(clean_path, injector.reference())
    write_csv_stream(faulty_path, injector.materialize())
    return injector


def make_queries_file(path: Path) -> None:
    path.write_text(
        json.dumps(
            [
                {"id": "concerts", "keyword": "concert", "rect": [1.0, 1.0],
                 "window": 30, "backend": "python"},
                {"id": "parades", "keyword": "parade", "rect": [1.2, 0.8],
                 "window": 20, "backend": "python"},
                {"id": "city-wide", "rect": [1.5, 1.5], "window": 25,
                 "algorithm": "gaps"},
                {"id": "top3", "keyword": "festival", "rect": [1.0, 1.0],
                 "window": 30, "k": 3, "algorithm": "kccs",
                 "backend": "python"},
            ]
        )
    )


def serve_args(
    stream: Path, *extra: str, chunk_size: int | None = CHUNK_SIZE
) -> list[str]:
    """A ``repro serve`` command line (``chunk_size=None``: no --chunk-size)."""
    chunking = ["--chunk-size", str(chunk_size)] if chunk_size is not None else []
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        str(stream),
        *chunking,
        "--shards",
        "2",
        *extra,
    ]


def final_results_block(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    try:
        start = lines.index("final results:")
    except ValueError:
        raise AssertionError(
            f"no 'final results:' block in serve output:\n{stdout[-2000:]}"
        ) from None
    return lines[start:]


def disorder_leg(workdir: Path, env: dict) -> None:
    clean = workdir / "clean.csv"
    faulty = workdir / "faulty.csv"
    queries = workdir / "queries.json"
    checkpoint_dir = workdir / "ckpt"
    quarantine_dir = workdir / "quarantine"
    injector = make_stream_files(clean, faulty)
    make_queries_file(queries)
    print(
        f"smoke: faulty feed has {injector.disordered} disordered and "
        f"{injector.poisoned} poison records",
        flush=True,
    )
    tolerant = (
        "--max-lateness", str(MAX_LATENESS),
        "--quarantine-dir", str(quarantine_dir),
    )

    print("smoke: strict run over the pre-sorted clean feed ...", flush=True)
    strict = subprocess.run(
        serve_args(clean, "--queries", str(queries)),
        capture_output=True,
        text=True,
        env=env,
        timeout=TIMEOUT,
    )
    assert strict.returncode == 0, strict.stderr
    strict_block = final_results_block(strict.stdout)

    print("smoke: uninterrupted tolerant run over the faulty feed ...", flush=True)
    reference = subprocess.run(
        serve_args(faulty, "--queries", str(queries), *tolerant),
        capture_output=True,
        text=True,
        env=env,
        timeout=TIMEOUT,
    )
    assert reference.returncode == 0, reference.stderr
    expected = final_results_block(reference.stdout)

    # Bit-identity through real processes: the tolerant run's results
    # (everything except its extra ingest: line) must equal the strict
    # run's over the pre-sorted feed.
    without_ingest = [l for l in expected if not l.startswith("ingest:")]
    assert without_ingest == strict_block, (
        "tolerant run over the faulty feed diverges from the strict run "
        "over the pre-sorted feed\n--- strict/clean ---\n"
        + "\n".join(strict_block)
        + "\n--- tolerant/faulty ---\n"
        + "\n".join(without_ingest)
    )
    ingest_lines = [l for l in expected if l.startswith("ingest:")]
    assert len(ingest_lines) == 1, expected
    assert f"quarantined={injector.poisoned}" in ingest_lines[0], ingest_lines[0]
    assert "late_dropped=0" in ingest_lines[0], ingest_lines[0]

    print("smoke: starting checkpointing victim under chaos ...", flush=True)
    shutil.rmtree(quarantine_dir, ignore_errors=True)
    victim = subprocess.Popen(
        serve_args(
            faulty,
            "--queries",
            str(queries),
            *tolerant,
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--checkpoint-every",
            "2",
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    deadline = time.monotonic() + TIMEOUT
    while (
        not manifest_path(checkpoint_dir).exists()
        and victim.poll() is None
        and time.monotonic() < deadline
    ):
        time.sleep(0.05)
    if victim.poll() is None:
        assert manifest_path(checkpoint_dir).exists(), (
            "victim ran past the deadline without writing a checkpoint"
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        print(
            f"smoke: SIGKILLed victim after its first checkpoint "
            f"(returncode {victim.returncode})",
            flush=True,
        )
        assert victim.returncode == -signal.SIGKILL
    else:
        # Very fast machine: the victim finished before the kill landed.
        # Resume degenerates to a no-op replay; parity still holds.
        print(
            "smoke: victim finished before the kill; checking "
            "resume-after-completion parity instead",
            flush=True,
        )
        assert victim.returncode == 0

    print("smoke: resuming from the checkpoint ...", flush=True)
    resumed = subprocess.run(
        serve_args(
            faulty,
            "--resume",
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--quarantine-dir",
            str(quarantine_dir),
        ),
        capture_output=True,
        text=True,
        env=env,
        timeout=TIMEOUT,
    )
    assert resumed.returncode == 0, resumed.stderr
    got = final_results_block(resumed.stdout)
    assert got == expected, (
        "resumed final results (incl. ingest counters) diverge from the "
        "uninterrupted run\n--- uninterrupted ---\n"
        + "\n".join(expected)
        + "\n--- resumed ---\n"
        + "\n".join(got)
    )
    print(
        "smoke: resume reproduced the uninterrupted results and ingest "
        "counters — OK"
    )


# ----------------------------------------------------------------------
# Leg 2: SIGKILL while shedding — overload counters are exactly-once too
# ----------------------------------------------------------------------

OVERLOAD_OBJECTS = 8_000
OVERLOAD_CHUNK = 50
#: Kill once the victim has checkpointed this deep — inside the flash-crowd
#: window, so the service is degraded and actively shedding when it dies.
KILL_AFTER_CHUNKS = 48


def make_overload_stream(faulty_path: Path) -> FaultInjector:
    rng = random.Random(SEED + 1)
    t = 0.0
    objects = []
    for index in range(OVERLOAD_OBJECTS):
        t += rng.uniform(0.05, 0.35)
        keywords = (rng.choice(VOCABULARY),) if rng.random() < 0.8 else ()
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, 6.0),
                y=rng.uniform(0.0, 6.0),
                timestamp=t,
                weight=rng.uniform(0.5, 8.0),
                object_id=index,
                attributes={"keywords": keywords} if keywords else {},
            )
        )
    # A long flash-crowd ramp: arrival gaps compressed 8x across the middle
    # 70% of the stream, so the reorder buffer's backlog crosses the high
    # watermark early and the service spends most of the run degraded.
    injector = FaultInjector(
        objects,
        seed=SEED + 1,
        disorder_fraction=0.05,
        max_disorder=MAX_LATENESS,
        flash_crowd_factor=8.0,
        flash_crowd_span=(0.15, 0.85),
    )
    write_csv_stream(faulty_path, injector.materialize())
    return injector


def make_priority_queries_file(path: Path) -> None:
    # Two priority-5 routes that must survive shedding untouched, and one
    # priority-0 route class (both parade queries share keyword + window,
    # so the whole class is sheddable) that degraded mode drops.
    path.write_text(
        json.dumps(
            [
                {"id": "concerts", "keyword": "concert", "rect": [1.0, 1.0],
                 "window": 30, "backend": "python", "priority": 5},
                {"id": "top3", "keyword": "festival", "rect": [1.0, 1.0],
                 "window": 30, "k": 3, "algorithm": "kccs",
                 "backend": "python", "priority": 5},
                {"id": "parades-a", "keyword": "parade", "rect": [1.2, 0.8],
                 "window": 20, "backend": "python"},
                {"id": "parades-b", "keyword": "parade", "rect": [0.8, 1.2],
                 "window": 20, "backend": "python"},
            ]
        )
    )


def overload_counter(block: list[str], name: str) -> int:
    lines = [l for l in block if l.startswith("overload:")]
    assert len(lines) == 1, block
    for token in lines[0].split():
        if token.startswith(f"{name}="):
            return int(token.split("=", 1)[1])
    raise AssertionError(f"no {name}= counter in {lines[0]!r}")


def overload_leg(workdir: Path, env: dict) -> None:
    faulty = workdir / "overload.csv"
    queries = workdir / "overload-queries.json"
    checkpoint_dir = workdir / "overload-ckpt"
    injector = make_overload_stream(faulty)
    make_priority_queries_file(queries)
    print(
        f"smoke[overload]: flash-crowd feed has {injector.disordered} "
        f"disordered records across an 8x ramp",
        flush=True,
    )
    overload_flags = (
        "--max-lateness", str(MAX_LATENESS),
        "--max-inflight-chunks", "2",
        "--overload-high", "1.0",
        "--overload-low", "0.25",
        "--overload-policy", "shed",
        "--shed-below-priority", "5",
        "--compact-every", "16",
    )

    print("smoke[overload]: uninterrupted degraded run ...", flush=True)
    reference = subprocess.run(
        serve_args(
            faulty, "--queries", str(queries), *overload_flags,
            chunk_size=OVERLOAD_CHUNK,
        ),
        capture_output=True,
        text=True,
        env=env,
        timeout=TIMEOUT,
    )
    assert reference.returncode == 0, reference.stderr
    expected = final_results_block(reference.stdout)
    # The leg is only meaningful if the run actually degraded: entered
    # degraded mode, shed the low-priority route, force-released the
    # in-flight budget, and ran compaction passes.
    assert overload_counter(expected, "entered") >= 1, expected
    assert overload_counter(expected, "chunks_shed") > 0, expected
    assert overload_counter(expected, "force_released") > 0, expected
    assert overload_counter(expected, "compactions") >= 1, expected

    print(
        "smoke[overload]: starting checkpointing victim, killing while "
        "shedding ...",
        flush=True,
    )
    victim = subprocess.Popen(
        serve_args(
            faulty,
            "--queries",
            str(queries),
            *overload_flags,
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--checkpoint-every",
            "2",
            chunk_size=OVERLOAD_CHUNK,
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )

    def checkpointed_chunks() -> int:
        if not manifest_path(checkpoint_dir).exists():
            return 0
        try:
            return read_manifest(checkpoint_dir).chunk_offset
        except (OSError, ValueError, KeyError):
            return 0  # mid-write; poll again

    deadline = time.monotonic() + TIMEOUT
    while (
        checkpointed_chunks() < KILL_AFTER_CHUNKS
        and victim.poll() is None
        and time.monotonic() < deadline
    ):
        time.sleep(0.02)
    if victim.poll() is None:
        durable = checkpointed_chunks()
        assert durable >= KILL_AFTER_CHUNKS, (
            "victim ran past the deadline without checkpointing "
            f"{KILL_AFTER_CHUNKS} chunks (got {durable})"
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        print(
            f"smoke[overload]: SIGKILLed victim at >= {durable} durable "
            f"chunks, mid-flash-crowd (returncode {victim.returncode})",
            flush=True,
        )
        assert victim.returncode == -signal.SIGKILL
    else:
        print(
            "smoke[overload]: victim finished before the kill; checking "
            "resume-after-completion parity instead",
            flush=True,
        )
        assert victim.returncode == 0

    # No replay-shaping flag at all, --chunk-size included: the manifest's
    # one replay section alone must reproduce the overload counter line.
    print("smoke[overload]: resuming from the checkpoint ...", flush=True)
    resumed = subprocess.run(
        serve_args(
            faulty,
            "--resume",
            "--checkpoint-dir",
            str(checkpoint_dir),
            chunk_size=None,
        ),
        capture_output=True,
        text=True,
        env=env,
        timeout=TIMEOUT,
    )
    assert resumed.returncode == 0, resumed.stderr
    got = final_results_block(resumed.stdout)
    assert got == expected, (
        "resumed final results (incl. overload counters) diverge from the "
        "uninterrupted degraded run\n--- uninterrupted ---\n"
        + "\n".join(expected)
        + "\n--- resumed ---\n"
        + "\n".join(got)
    )
    print(
        "smoke[overload]: resume reproduced the shed/compaction counters "
        "and final results — OK"
    )


def main() -> int:
    workdir = Path(REPO_ROOT / ".chaos-smoke")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        disorder_leg(workdir, env)
        overload_leg(workdir, env)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
