"""CI smoke: the q64 shared-work execution plan changes no answer.

Replays one keyword-tagged stream through a 64-query grid (the
``group_aligned`` variant of :func:`repro.service.make_query_grid`, so the
grid contains both window-sharing and exact-duplicate detector-sharing
groups) against the independent-monitor oracle
(``tests/helpers.replay_oracle``: 64 private monitors over keyword-filtered
substreams) three ways:

* ``serial`` / 1 shard;
* ``process`` / 2 shards (worker processes build and run the plan on their
  side of the pickle boundary);
* ``serial`` with a mid-stream checkpoint, a simulated crash, and a restore
  that replays the tail — the plan's aliasing must also be invisible across
  the durability boundary.

Every variant must report final results, top-k lists and routed-object
counts bit-identical to the oracle's: each query's ``objects_routed`` is its
route's object count in the oracle replay.  The per-query counters must also
conserve: Σ ``chunks_processed`` = chunks × live queries, so a detector-unit
member credited twice or not at all fails here, outside the unit-test
process, even if every final answer agrees.  Exercised as a standalone script
(``make smoke-shared``) because the process-executor leg depends on worker
process spawning, which only breaks outside the unit-test process.

Usage::

    PYTHONPATH=src python scripts/shared_plan_smoke.py [--objects N]
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from repro.service import SurgeService, make_query_grid  # noqa: E402
from repro.streams.objects import SpatialObject  # noqa: E402
from repro.streams.sources import iter_chunks  # noqa: E402
from tests.helpers import replay_oracle, result_key, result_keys  # noqa: E402

VOCABULARY = ("traffic", "food", "weather", "sports", "news", "music", "work", "travel")
CHUNK_SIZE = 256
N_QUERIES = 64


def make_stream(n_objects: int, seed: int = 20180416) -> list[SpatialObject]:
    rng = random.Random(seed)
    return [
        SpatialObject(
            x=rng.uniform(0.0, 8.0),
            y=rng.uniform(0.0, 8.0),
            timestamp=float(index),
            weight=rng.uniform(0.5, 10.0),
            object_id=index,
            attributes={"keywords": (rng.choice(VOCABULARY),)},
        )
        for index in range(n_objects)
    ]


def make_specs() -> list:
    # 8 keywords × 2 rects × 3 windows = 48 distinct specs: the grid wraps
    # after 48, so 16 specs run as two-tenant detector units.
    return make_query_grid(
        N_QUERIES,
        base_window=120.0,
        algorithm="ccs",
        backend="python",
        keywords=VOCABULARY,
        rect_multipliers=(1.0, 1.5),
        group_aligned=True,
    )


def fingerprint(service: SurgeService) -> dict:
    """Bitwise observable state: finals, top-k and routed counts per query."""
    return {
        "finals": result_keys(service.results()),
        "top_k": {
            qid: tuple(result_key(r) for r in results)
            for qid, results in service.top_k().items()
        },
        "routed": {
            qid: stats.objects_routed
            for qid, stats in service.stats().per_query.items()
        },
    }


def oracle_fingerprint(stream) -> dict:
    trace, finals, top_k, routed = replay_oracle(stream, make_specs(), CHUNK_SIZE)
    return {
        "finals": finals,
        "top_k": top_k,
        "routed": routed,
        "conservation": {"chunks_processed": len(trace) * N_QUERIES},
    }


def conserved(service: SurgeService) -> dict:
    """Per-query counters summed across queries (see the module docstring)."""
    per_query = service.stats().per_query.values()
    return {"chunks_processed": sum(s.chunks_processed for s in per_query)}


def replay(stream, *, executor: str, shards: int):
    started = time.perf_counter()
    with SurgeService(make_specs(), shards=shards, executor=executor) as service:
        for _ in service.run(stream, CHUNK_SIZE):
            pass
        wall = time.perf_counter() - started
        return dict(fingerprint(service), conservation=conserved(service)), wall


def replay_with_crash(stream, workdir: Path):
    """Checkpoint mid-stream, crash, restore and replay the tail."""
    checkpoint_dir = workdir / "ckpt"
    doomed = SurgeService(make_specs(), checkpoint_dir=checkpoint_dir)
    chunks = iter(iter_chunks(stream, CHUNK_SIZE))
    crash_after = max(1, len(stream) // (2 * CHUNK_SIZE))
    with doomed:
        for _ in range(crash_after):
            doomed.push_many(next(chunks))
        doomed.checkpoint()
    del doomed  # the crash: all in-memory state gone

    restored = SurgeService.restore(checkpoint_dir)
    with restored:
        for chunk in iter_chunks(stream, CHUNK_SIZE, start_offset=restored.chunk_offset):
            restored.push_many(chunk)
        return dict(fingerprint(restored), conservation=conserved(restored))


def status(got: dict, reference: dict) -> str:
    """``ok``, or ``DIVERGED`` naming the fingerprint parts that differ."""
    differing = [part for part in reference if got.get(part) != reference[part]]
    return f"DIVERGED ({', '.join(differing)})" if differing else "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=2048)
    args = parser.parse_args()

    stream = make_stream(args.objects)
    print(
        f"shared-plan smoke: q{N_QUERIES} group-aligned grid, "
        f"{len(stream)} objects, chunk {CHUNK_SIZE}",
        flush=True,
    )

    started = time.perf_counter()
    reference = oracle_fingerprint(stream)
    print(
        f"  independent-monitor oracle: {time.perf_counter() - started:6.2f}s",
        flush=True,
    )

    failures = []
    variants = [
        ("serial/1-shard", dict(executor="serial", shards=1)),
        ("process/2-shard", dict(executor="process", shards=2)),
    ]
    for label, kwargs in variants:
        got, wall = replay(stream, **kwargs)
        print(f"  {label}: {wall:6.2f}s  {status(got, reference)}", flush=True)
        if got != reference:
            failures.append(label)

    workdir = Path(tempfile.mkdtemp(prefix="shared-plan-smoke-"))
    try:
        got = replay_with_crash(stream, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"  checkpoint -> crash -> resume: {status(got, reference)}", flush=True)
    if got != reference:
        failures.append("checkpoint resume")

    if failures:
        print(f"FAILED: {', '.join(failures)} diverged from the oracle")
        return 1
    print("shared-plan smoke passed: all variants bit-identical to the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
