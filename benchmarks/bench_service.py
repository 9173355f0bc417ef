"""Multi-query service throughput benchmark: aggregate objects·queries/sec.

``bench_ingest.py`` tracks how fast ONE monitor drains a stream; this
benchmark tracks the multi-tenant axis — N registered queries (different
keywords, rectangle sizes, window lengths, built by
:func:`repro.service.make_query_grid`) multiplexed over one shared
keyword-tagged stream by :class:`repro.service.SurgeService`.  The recorded
unit is **object·query pairs per second**: a chunk of ``n`` objects against
``m`` live queries is ``n·m`` pairs of routing + detection work.

The grid is query counts {1, 8, 64} × the ``serial`` executor (the
single-process reference; shard count is irrelevant to it, it is recorded
at ``shards1``) and the ``process`` executor at shard counts {1, 2, 4}
(persistent single-worker pool per shard; chunks pickled to every shard
once, replies pickled back).  The ``remote`` executor has its own file
(``bench_remote.py``).

Every cell runs the one execution plan the service has (inverted keyword
routing + shared window groups + shared detector units,
``repro.service.shards``); every cell's final per-query scores are
cross-checked bit-identical against the serial reference.  The unshared
per-query predicate-scan plan this file used to carry as a
``serial_unshared`` column was deleted with its last recorded ratio
(``shared_vs_unshared_q64`` = 3.13×, schema v2) kept in CHANGES.md.

Interpreting the process numbers requires ``config.cpu_count``: process
sharding buys wall-clock throughput only when shards map onto real cores.
On a single-CPU host every process cell pays pickling + scheduling on top
of the same total work and lands *below* serial; the recorded trajectory is
still the regression yardstick for the dispatch overhead itself, and on an
M-core host the q64 cells scale toward ``min(shards, M)``×.

Regression guard
----------------
As with the other BENCH files: if a previous ``BENCH_service.json`` exists,
the script refuses to overwrite it when any (queries, executor, shards)
cell's pairs/sec regressed by more than ``REGRESSION_TOLERANCE`` (20%);
``--force`` overrides.  Runs on a host with a different ``cpu_count`` than
the recorded file skip the guard for process cells (the serial cells remain
guarded) — cross-machine process numbers are not comparable.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--force] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from repro.evaluation.runner import run_service
from repro.service import make_query_grid
from repro.streams.objects import SpatialObject

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"
SCHEMA = "bench_service/v3"
SEED = 20180416
REGRESSION_TOLERANCE = 0.20

TOTAL_OBJECTS = 4096
CHUNK_SIZE = 512
EXTENT = 8.0
BASE_RECT = (1.0, 1.0)
BASE_WINDOW = 600.0  # seconds; at 1 object/sec the window holds ~600 objects
ALPHA = 0.5
ALGORITHM = "ccs"
BACKEND = "python"
VOCABULARY = ("traffic", "food", "weather", "sports", "news", "music", "work", "travel")

QUERY_COUNTS = (1, 8, 64)
SHARD_COUNTS = (1, 2, 4)


def make_stream(total: int, seed: int = SEED) -> list[SpatialObject]:
    """Uniform keyword-tagged stream, one object per second (stdlib only)."""
    rng = random.Random(seed)
    return [
        SpatialObject(
            x=rng.uniform(0.0, EXTENT),
            y=rng.uniform(0.0, EXTENT),
            timestamp=float(index),
            weight=rng.uniform(0.5, 10.0),
            object_id=index,
            attributes={"keywords": (rng.choice(VOCABULARY),)},
        )
        for index in range(total)
    ]


def run_cell(
    stream: list[SpatialObject],
    n_queries: int,
    executor: str,
    shards: int,
) -> dict:
    specs = make_query_grid(
        n_queries,
        base_rect=BASE_RECT,
        base_window=BASE_WINDOW,
        alpha=ALPHA,
        algorithm=ALGORITHM,
        backend=BACKEND,
        keywords=VOCABULARY,
    )
    outcome = run_service(
        specs,
        stream,
        shards=shards,
        executor=executor,
        chunk_size=CHUNK_SIZE,
    )
    scores = {
        query_id: (result.score if result is not None else None)
        for query_id, result in outcome.final_results.items()
    }
    return {
        "object_query_pairs_per_second": outcome.pairs_per_second,
        "wall_seconds": outcome.wall_seconds,
        "objects_total": outcome.objects_total,
        "object_query_pairs": outcome.object_query_pairs,
        "_final_scores": scores,  # stripped before writing; cross-checked below
    }


def run_benchmark(query_counts, shard_counts, total_objects: int) -> dict:
    stream = make_stream(total_objects)
    results: dict[str, dict] = {}
    for n_queries in query_counts:
        per_count: dict[str, dict] = {"serial": {}, "process": {}}
        # The serial cell leads so every process cell is cross-checked
        # bit-identical against it.
        cells = [("serial", 1)] + [("process", shards) for shards in shard_counts]
        reference_scores = None
        for executor, shards in cells:
            started = time.perf_counter()
            cell = run_cell(stream, n_queries, executor, shards)
            scores = cell.pop("_final_scores")
            # Every executor/shard combination must answer every query
            # identically — sharding may never change a result.
            if reference_scores is None:
                reference_scores = scores
            elif scores != reference_scores:
                raise AssertionError(
                    f"q{n_queries}/{executor}/shards{shards}: final scores "
                    f"differ from the serial reference"
                )
            per_count[executor][f"shards{shards}"] = cell
            print(
                f"  q{n_queries:>3} {executor:>8} shards={shards}  "
                f"{cell['object_query_pairs_per_second']:10,.0f} pairs/s  "
                f"(wall {cell['wall_seconds']:6.2f}s, total "
                f"{time.perf_counter() - started:6.2f}s)",
                flush=True,
            )
        results[f"q{n_queries}"] = per_count
    report = {
        "schema": SCHEMA,
        "config": {
            "seed": SEED,
            "total_objects": total_objects,
            "chunk_size": CHUNK_SIZE,
            "extent": EXTENT,
            "base_rect": list(BASE_RECT),
            "base_window": BASE_WINDOW,
            "alpha": ALPHA,
            "algorithm": ALGORITHM,
            "backend": BACKEND,
            "vocabulary_size": len(VOCABULARY),
            "query_counts": list(query_counts),
            "shard_counts": list(shard_counts),
            "cpu_count": os.cpu_count(),
        },
        "results": results,
    }
    top = f"q{max(query_counts)}"
    serial = results[top]["serial"]["shards1"]["object_query_pairs_per_second"]
    speedups = {}
    for shards_key, cell in results[top]["process"].items():
        speedups[f"process_{shards_key}_vs_serial_{top}"] = (
            cell["object_query_pairs_per_second"] / serial if serial > 0 else 0.0
        )
    report["speedups"] = speedups
    return report


def check_regression(old: dict, new: dict, tolerance: float = REGRESSION_TOLERANCE):
    """Cells whose pairs/sec slowed beyond tolerance (process cells are only
    compared when the recorded cpu_count matches this host)."""
    regressions = []
    same_host_shape = old.get("config", {}).get("cpu_count") == new["config"]["cpu_count"]
    for count_key, executors in old.get("results", {}).items():
        for executor, cells in executors.items():
            if executor == "process" and not same_host_shape:
                continue
            for shards_key, cell in cells.items():
                new_cell = (
                    new["results"].get(count_key, {}).get(executor, {}).get(shards_key)
                )
                if new_cell is None:
                    regressions.append(
                        f"{count_key}/{executor}/{shards_key}: cell missing from "
                        "the new run; refusing to drop its recorded trajectory"
                    )
                    continue
                before = cell["object_query_pairs_per_second"]
                after = new_cell["object_query_pairs_per_second"]
                if after < before * (1.0 - tolerance):
                    regressions.append(
                        f"{count_key}/{executor}/{shards_key}: {before:,.0f} -> "
                        f"{after:,.0f} pairs/s "
                        f"({100.0 * (1.0 - after / before):.1f}% slower)"
                    )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite BENCH_service.json even on regression",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid and stream (CI smoke mode; never overwrites the "
        "tracked trajectory file)",
    )
    parser.add_argument("--out", default=str(OUTPUT_PATH), help="output JSON path")
    args = parser.parse_args(argv)

    query_counts, shard_counts, total_objects = QUERY_COUNTS, SHARD_COUNTS, TOTAL_OBJECTS
    if args.quick:
        query_counts, shard_counts, total_objects = (1, 8), (1, 2), TOTAL_OBJECTS // 4

    print(
        f"bench_service: queries={list(query_counts)} shards={list(shard_counts)} "
        f"total={total_objects} chunk={CHUNK_SIZE} algorithm={ALGORITHM} "
        f"cpu_count={os.cpu_count()}"
    )
    report = run_benchmark(query_counts, shard_counts, total_objects)

    out_path = Path(args.out)
    if args.quick and args.out == str(OUTPUT_PATH):
        print("quick mode: skipping BENCH_service.json update (pass --out to write)")
        return 0
    if out_path.exists() and not args.force:
        old = json.loads(out_path.read_text())
        regressions = check_regression(old, report)
        if regressions:
            print(
                "refusing to overwrite {}: throughput regressed >{}%\n  {}".format(
                    out_path, int(REGRESSION_TOLERANCE * 100), "\n  ".join(regressions)
                ),
                file=sys.stderr,
            )
            return 1
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
