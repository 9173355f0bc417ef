"""Robustness benchmark: reorder-buffer overhead, disorder sweeps, and
plan compaction under churn + keyword skew.

Four questions decide whether the disorder-tolerant ingestion tier
(:mod:`repro.streams.watermark` wired through ``SurgeService.run``) is
deployable, and whether the shared execution plan survives adversarial
workloads:

``reorder overhead``
    What does routing a *fully ordered* stream through the watermark
    reorder buffer cost versus the historical strict chunker?  The
    acceptance bar is **≤ 20%** overhead: the run *fails* (and refuses to
    write) beyond it — tolerance must be cheap enough to leave on.

``disorder sweep``
    Throughput at {0%, 1%, 10%} bounded disorder (displacement within
    ``max_lateness``), produced by the shared
    :class:`~repro.streams.faults.FaultInjector`.  Every cell must answer
    every query *identically* to the strict run over the pre-sorted clean
    stream — that is the tier's whole contract — and must drop nothing.

``drop accounting``
    With displacement beyond the bound (plus poison and duplicates), the
    stragglers must be counted-and-dropped, not silently lost: raw arrivals
    = processed + late_dropped + quarantined, exactly.

``churn + skew``
    A Zipf-skewed keyword stream with a query churn storm applied between
    chunks — the adversarial case for the shared plan's inverted keyword
    routing (one hot bucket, constant re-bucketing).  The cell runs a
    **q64 group-aligned grid** whose storm removes and re-registers grid
    members (each re-add lands in a fresh epoch, fragmenting the plan),
    once with periodic compaction merging them back and once with
    compaction off — the baseline compaction actually competes with.  Both
    runs must answer identically, and the compacted run must be **no
    slower** than the uncompacted one (``MIN_COMPACTION_RATIO`` = 1.0;
    measured 1.09–1.10x) or the run fails.

``slow subscriber``
    A seeded slow-subscriber callback (from the shared ``FaultInjector``)
    plus a bounded ``drop_oldest`` subscription drained lazily: the peak
    queue depth must respect the bound, and the accounting must be exact —
    every offered update is delivered or counted dropped, none lost.

``memory bound``
    A 100k-object 32x flash-crowd stream against a 2-chunk in-flight
    budget: the peak number of buffered arrivals must never exceed
    ``max_inflight_chunks * chunk_size``, proving service memory stays
    bounded under any arrival burst.

Regression guard
----------------
As with the other BENCH files: if a previous ``BENCH_robustness.json``
exists, the script refuses to overwrite it when a guarded throughput
regressed by more than ``REGRESSION_TOLERANCE`` (20%); ``--force``
overrides.  The guard is schema-aware: a previous file with a different
schema (e.g. v2, whose churn cell compared against the deleted unshared
plan) is reported and skipped rather than compared cell-by-cell.

Usage::

    PYTHONPATH=src python benchmarks/bench_robustness.py [--force] [--quick]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.datasets.workloads import zipf_keyword_stream
from repro.obs.counters import declared
from repro.service import QuerySpec, SurgeService, make_query_grid
from repro.streams.faults import FaultInjector
from repro.streams.objects import SpatialObject

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_robustness.json"
SCHEMA = "bench_robustness/v3"
SEED = 20180416
REGRESSION_TOLERANCE = 0.20
#: Acceptance bar: the reorder buffer may cost at most this fraction of the
#: strict path's throughput on a fully ordered stream.
MAX_OVERHEAD_FRACTION = 0.20
#: Acceptance bar: at q64 under the churn storm, the run with periodic
#: compaction must reach at least this fraction of the same run without it —
#: the passes must recover more than they cost.  Measured 1.09–1.10x (9 of
#: the 16 churned queries re-merged; four runs, 2-core host).
MIN_COMPACTION_RATIO = 1.0
#: Guarded cells (objects/sec) for the regression check.
GUARDED_CELLS = (
    ("ordered_tolerant", ("results", "ordered", "tolerant")),
    ("disorder_10pct", ("results", "disorder_sweep", "10pct")),
    ("churn_compacted", ("results", "churn_skew", "compacted")),
    ("slow_subscriber", ("results", "slow_subscriber",)),
)

TOTAL_OBJECTS = 8192
CHURN_OBJECTS = 6144
MEMORY_OBJECTS = 100_000
CHUNK_SIZE = 256
MAX_LATENESS = 6.0
N_QUERIES = 8
CHURN_QUERIES = 64
EXTENT = 6.0
BASE_RECT = (1.0, 1.0)
BASE_WINDOW = 120.0
ALPHA = 0.5
ALGORITHM = "ccs"
BACKEND = "python"
VOCABULARY = ("concert", "parade", "festival", "derby",
              "marathon", "protest", "storm", "expo")
DISORDER_SWEEP = (("0pct", 0.0), ("1pct", 0.01), ("10pct", 0.10))
CHURN_EVERY_CHUNKS = 1
COMPACT_EVERY_CHUNKS = 4
#: Bounded subscription size and drain cadence for the slow-subscriber cell.
#: The bound is intentionally smaller than even the --quick run offers, so
#: the lazy drain always overflows and the drop accounting is exercised.
SLOW_SUB_MAXSIZE = 24
SLOW_SUB_DRAIN_EVERY = 4
#: In-flight budget (chunks) for the memory-bound cell.
MEMORY_BUDGET_CHUNKS = 2


def make_stream(total: int, seed: int = SEED) -> list[SpatialObject]:
    """Uniform keyword-tagged stream at ~4 objects/stream-second."""
    rng = random.Random(seed)
    t = 0.0
    objects = []
    for index in range(total):
        t += rng.uniform(0.05, 0.45)
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, EXTENT),
                y=rng.uniform(0.0, EXTENT),
                timestamp=t,
                weight=rng.uniform(0.5, 10.0),
                object_id=index,
                attributes={"keywords": (rng.choice(VOCABULARY),)},
            )
        )
    return objects


def make_specs() -> list[QuerySpec]:
    return make_query_grid(
        N_QUERIES,
        base_rect=BASE_RECT,
        base_window=BASE_WINDOW,
        alpha=ALPHA,
        algorithm=ALGORITHM,
        backend=BACKEND,
        keywords=VOCABULARY,
    )


def drive(arrivals, *, max_lateness: float = 0.0) -> tuple[float, dict, dict]:
    """Replay ``arrivals`` through a fresh service; return (wall, results, ingest)."""
    service = SurgeService(make_specs(), max_lateness=max_lateness)
    try:
        started = time.perf_counter()
        for _updates in service.run(iter(arrivals), chunk_size=CHUNK_SIZE):
            pass
        wall = time.perf_counter() - started
        return wall, service.results(), declared(service.ingest_stats())
    finally:
        service.close()


def make_churn_grid() -> list[QuerySpec]:
    """q64 group-aligned grid: rich window/detector sharing to fragment.

    Four keywords x 3 rects x 3 windows = 36 distinct combinations, so the
    64-query grid wraps onto 28 exact duplicates — the plan aliases those
    into common detector units (the sharing the churn storm breaks and
    compaction must restore).
    """
    return make_query_grid(
        CHURN_QUERIES,
        base_rect=BASE_RECT,
        base_window=BASE_WINDOW,
        alpha=ALPHA,
        algorithm=ALGORITHM,
        backend=BACKEND,
        keywords=VOCABULARY[:4],
        group_aligned=True,
    )


def make_churn_schedule(specs: list[QuerySpec], n_chunks: int) -> list[tuple]:
    """Alternating remove / re-add of grid members, one op per chunk.

    Every re-registration lands in a fresh epoch, so without compaction
    the plan fragments monotonically; the schedule is the same for both
    runs so their answers stay comparable.
    """
    rng = random.Random(SEED + 2)
    victims = iter(rng.sample(range(len(specs)), k=min(16, len(specs))))
    pending: list[QuerySpec] = []
    schedule: list[tuple] = []
    for chunk in range(n_chunks):
        if chunk % 2 == 0:
            index = next(victims, None)
            if index is not None:
                schedule.append(("remove", specs[index]))
                pending.append(specs[index])
                continue
        if pending:
            schedule.append(("add", pending.pop(0)))
        else:
            schedule.append((None, None))
    return schedule


def assert_parity(reference: dict, candidate: dict, label: str) -> None:
    """Every query must answer bit-identically to the reference run."""
    if reference.keys() != candidate.keys():
        raise AssertionError(
            f"{label}: query sets differ from the reference run"
        )
    for query_id, expected in reference.items():
        if candidate[query_id] != expected:
            raise AssertionError(
                f"{label}: query {query_id!r} diverged from the strict "
                f"reference\n  expected: {expected}\n  got:      "
                f"{candidate[query_id]}"
            )


def churn_skew_cell(churn_objects: int) -> dict:
    print(
        f"churn storm + Zipf skew (q{CHURN_QUERIES} grid, compaction on vs off):",
        flush=True,
    )
    skewed = zipf_keyword_stream(churn_objects, seed=SEED, extent=EXTENT)
    specs = make_churn_grid()
    n_chunks = -(-churn_objects // CHUNK_SIZE)
    schedule = make_churn_schedule(specs, n_chunks)
    cells = {}
    reference_results = None
    for label, compact_every in (
        ("compacted", COMPACT_EVERY_CHUNKS),
        ("uncompacted", None),
    ):
        service = SurgeService(specs, compact_every_chunks=compact_every)
        try:
            started = time.perf_counter()
            for index, _updates in enumerate(
                service.run(iter(skewed), chunk_size=CHUNK_SIZE)
            ):
                op, spec = (
                    schedule[index] if index < len(schedule) else (None, None)
                )
                if op == "remove":
                    service.remove_query(spec.query_id)
                elif op == "add":
                    service.add_query(spec)
            wall = time.perf_counter() - started
            results = service.results()
            compacted = service.overload_stats().queries_compacted
        finally:
            service.close()
        ops = churn_objects / wall
        cells[label] = {
            "objects_per_second": ops,
            "queries_compacted": compacted,
        }
        if reference_results is None:
            reference_results = results
        else:
            assert_parity(reference_results, results, f"churn/{label}")
        print(
            f"  {label:>11}: {ops:10,.0f} obj/s  "
            f"(re-merged {compacted} churned queries)",
            flush=True,
        )
    if cells["compacted"]["queries_compacted"] == 0:
        raise AssertionError(
            "the churn storm re-registered grid queries but compaction "
            "merged none of them back — re-epoching is not restoring sharing"
        )
    ratio = (
        cells["compacted"]["objects_per_second"]
        / cells["uncompacted"]["objects_per_second"]
    )
    cells["compacted_over_uncompacted"] = ratio
    print(f"  compacted/uncompacted: {ratio:.2f}x", flush=True)
    return cells


def slow_subscriber_cell(clean: list[SpatialObject]) -> dict:
    print("slow subscriber (bounded queue, lazy drain):", flush=True)
    injector = FaultInjector(
        clean,
        seed=SEED + 3,
        slow_subscriber_fraction=0.10,
        slow_subscriber_delay=0.002,
    )
    service = SurgeService(make_specs())
    try:
        # A seeded-slow callback subscriber (stalls inline on ~10% of
        # updates) plus a bounded queue drained only every few chunks: the
        # laggard consumer the backpressure tier exists to survive.
        service.bus.subscribe(injector.make_slow_subscriber())
        subscription = service.bus.open_subscription(
            maxsize=SLOW_SUB_MAXSIZE, policy="drop_oldest"
        )
        started = time.perf_counter()
        for index, _updates in enumerate(
            service.run(iter(clean), chunk_size=CHUNK_SIZE)
        ):
            if index % SLOW_SUB_DRAIN_EVERY == 0:
                # Drain one chunk's worth: strictly less than was offered
                # since the last drain, so the queue lags and overflows.
                for _ in range(N_QUERIES):
                    if subscription.get(timeout=0) is None:
                        break
        wall = time.perf_counter() - started
        peak_depth = service.bus.peak_queue_depth()
        subscription.drain()
        counters = subscription.counters()
    finally:
        service.close()
    if peak_depth > SLOW_SUB_MAXSIZE:
        raise AssertionError(
            f"peak queue depth {peak_depth} exceeded the "
            f"{SLOW_SUB_MAXSIZE}-update bound"
        )
    if counters["dropped"] == 0:
        raise AssertionError("the lazy drain never overflowed the queue")
    if counters["offered"] != counters["delivered"] + counters["dropped"]:
        raise AssertionError(
            f"update accounting is not exact after the final drain: "
            f"{counters}"
        )
    ops = len(clean) / wall
    print(
        f"  {ops:10,.0f} obj/s  (peak depth {peak_depth} <= "
        f"{SLOW_SUB_MAXSIZE}, {counters['offered']} offered = "
        f"{counters['delivered']} delivered + {counters['dropped']} "
        f"dropped, {injector.subscriber_stalls} stalls)",
        flush=True,
    )
    return {
        "objects_per_second": ops,
        "peak_queue_depth": peak_depth,
        "queue_bound": SLOW_SUB_MAXSIZE,
        "offered": counters["offered"],
        "delivered": counters["delivered"],
        "dropped": counters["dropped"],
        "subscriber_stalls": injector.subscriber_stalls,
    }


def memory_bound_cell(memory_objects: int) -> dict:
    print(
        f"memory bound ({memory_objects} objects, 32x flash crowd, "
        f"{MEMORY_BUDGET_CHUNKS}-chunk in-flight budget):",
        flush=True,
    )
    rng = random.Random(SEED + 4)
    t = 0.0
    objects = []
    for index in range(memory_objects):
        t += rng.uniform(0.05, 0.45)
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, EXTENT),
                y=rng.uniform(0.0, EXTENT),
                timestamp=t,
                weight=rng.uniform(0.5, 10.0),
                object_id=index,
                attributes={"keywords": (rng.choice(VOCABULARY),)},
            )
        )
    # 32x gap compression: the burst piles ~6x the budget into the
    # lateness window, so the bound is genuinely load-bearing.
    injector = FaultInjector(
        objects,
        seed=SEED + 4,
        disorder_fraction=0.05,
        max_disorder=MAX_LATENESS,
        flash_crowd_factor=32.0,
        flash_crowd_span=(0.3, 0.7),
    )
    arrivals = injector.materialize()
    # Two queries keep the cell about buffering, not detector throughput.
    specs = make_query_grid(
        2,
        base_rect=BASE_RECT,
        base_window=BASE_WINDOW,
        alpha=ALPHA,
        algorithm=ALGORITHM,
        backend=BACKEND,
        keywords=VOCABULARY,
    )
    service = SurgeService(
        specs,
        max_lateness=MAX_LATENESS,
        max_inflight_chunks=MEMORY_BUDGET_CHUNKS,
    )
    try:
        started = time.perf_counter()
        for _updates in service.run(iter(arrivals), chunk_size=CHUNK_SIZE):
            pass
        wall = time.perf_counter() - started
        ingest = service.ingest_stats()
    finally:
        service.close()
    bound = MEMORY_BUDGET_CHUNKS * CHUNK_SIZE
    if ingest.peak_buffered > bound:
        raise AssertionError(
            f"peak buffered {ingest.peak_buffered} arrivals exceeded the "
            f"{bound}-object in-flight budget"
        )
    if ingest.force_released == 0:
        raise AssertionError(
            "the flash crowd never pressed the in-flight budget — the "
            "memory-bound cell is not exercising backpressure"
        )
    ops = len(arrivals) / wall
    print(
        f"  {ops:10,.0f} obj/s  (peak buffered {ingest.peak_buffered} <= "
        f"{bound}, force_released {ingest.force_released})",
        flush=True,
    )
    return {
        "objects": memory_objects,
        "objects_per_second": ops,
        "peak_buffered": ingest.peak_buffered,
        "bound": bound,
        "max_inflight_chunks": MEMORY_BUDGET_CHUNKS,
        "force_released": ingest.force_released,
    }


def run_benchmark(total_objects: int, churn_objects: int,
                  memory_objects: int) -> dict:
    clean = make_stream(total_objects)

    # --- reorder overhead on a fully ordered stream -------------------
    print("ordered stream (strict vs tolerant path):", flush=True)
    strict_wall, strict_results, _ = drive(clean)
    strict_ops = total_objects / strict_wall
    print(f"  strict   path: {strict_ops:10,.0f} obj/s", flush=True)
    tolerant_wall, tolerant_results, tolerant_ingest = drive(
        clean, max_lateness=MAX_LATENESS
    )
    tolerant_ops = total_objects / tolerant_wall
    overhead = 1.0 - tolerant_ops / strict_ops
    print(
        f"  tolerant path: {tolerant_ops:10,.0f} obj/s  "
        f"(overhead {100.0 * overhead:+.1f}%)",
        flush=True,
    )
    assert_parity(strict_results, tolerant_results, "ordered/tolerant")
    if tolerant_ingest["late_dropped"] or tolerant_ingest["reordered"]:
        raise AssertionError(
            f"ordered stream produced nonzero disorder counters: "
            f"{tolerant_ingest}"
        )

    # --- disorder sweep -----------------------------------------------
    print("disorder sweep (bounded; must match the strict reference):", flush=True)
    sweep_cells = {}
    for label, fraction in DISORDER_SWEEP:
        injector = FaultInjector(
            clean,
            seed=SEED,
            disorder_fraction=fraction,
            max_disorder=MAX_LATENESS,
        )
        arrivals = injector.materialize()
        wall, results, ingest = drive(arrivals, max_lateness=MAX_LATENESS)
        ops = len(arrivals) / wall
        assert_parity(strict_results, results, f"disorder/{label}")
        if ingest["late_dropped"]:
            raise AssertionError(
                f"disorder/{label}: dropped {ingest['late_dropped']} records "
                f"despite displacement within max_lateness"
            )
        sweep_cells[label] = {
            "disorder_fraction": fraction,
            "objects_per_second": ops,
            "reordered": ingest["reordered"],
            "late_dropped": ingest["late_dropped"],
        }
        print(
            f"  {label:>5} disorder: {ops:10,.0f} obj/s  "
            f"(reordered {ingest['reordered']}, dropped 0)",
            flush=True,
        )

    # --- drop accounting beyond the bound -----------------------------
    injector = FaultInjector(
        clean,
        seed=SEED + 1,
        disorder_fraction=0.10,
        max_disorder=3.0 * MAX_LATENESS,
        duplicate_fraction=0.01,
        poison_fraction=0.005,
    )
    arrivals = injector.materialize()
    _, _, ingest = drive(arrivals, max_lateness=MAX_LATENESS)
    processed = len(arrivals) - ingest["late_dropped"] - ingest["quarantined"]
    if ingest["late_dropped"] == 0:
        raise AssertionError(
            "displacement 3x beyond max_lateness dropped nothing — the "
            "watermark is not advancing"
        )
    if ingest["quarantined"] != injector.poisoned:
        raise AssertionError(
            f"quarantined {ingest['quarantined']} != injected poison "
            f"{injector.poisoned}"
        )
    print(
        f"drop accounting (3x over-bound disorder): {len(arrivals)} arrivals "
        f"= {processed} processed + {ingest['late_dropped']} dropped + "
        f"{ingest['quarantined']} quarantined",
        flush=True,
    )
    accounting = {
        "arrivals": len(arrivals),
        "processed": processed,
        "late_dropped": ingest["late_dropped"],
        "quarantined": ingest["quarantined"],
        "duplicates_seen": ingest["duplicates_seen"],
    }

    # --- compaction on vs off under churn + skew (q64) -----------------
    churn_cells = churn_skew_cell(churn_objects)

    # --- slow subscriber: bounded queue, exact accounting -------------
    slow_cell = slow_subscriber_cell(clean)

    # --- memory bound under a flash crowd -----------------------------
    memory_cell = memory_bound_cell(memory_objects)

    return {
        "schema": SCHEMA,
        "config": {
            "seed": SEED,
            "extent": EXTENT,
            "base_rect": list(BASE_RECT),
            "base_window": BASE_WINDOW,
            "alpha": ALPHA,
            "algorithm": ALGORITHM,
            "backend": BACKEND,
            "n_queries": N_QUERIES,
            "churn_queries": CHURN_QUERIES,
            "total_objects": total_objects,
            "churn_objects": churn_objects,
            "memory_objects": memory_objects,
            "chunk_size": CHUNK_SIZE,
            "max_lateness": MAX_LATENESS,
            "compact_every_chunks": COMPACT_EVERY_CHUNKS,
        },
        "results": {
            "ordered": {
                "strict": {"objects_per_second": strict_ops},
                "tolerant": {
                    "objects_per_second": tolerant_ops,
                    "overhead_fraction": overhead,
                },
            },
            "disorder_sweep": sweep_cells,
            "drop_accounting": accounting,
            "churn_skew": churn_cells,
            "slow_subscriber": slow_cell,
            "memory_bound": memory_cell,
        },
    }


def _cell_ops(report: dict, path: tuple) -> float:
    node = report
    for key in path:
        node = node[key]
    return node["objects_per_second"]


def check_regression(old: dict, new: dict, tolerance: float = REGRESSION_TOLERANCE):
    # Schema-aware: an older-schema file (different cells, different churn
    # workload) is not comparable cell-by-cell — first write under a new
    # schema re-baselines instead of hard-failing.
    if old.get("schema") != new.get("schema"):
        print(
            f"previous file has schema {old.get('schema')!r}; "
            f"re-baselining under {new.get('schema')!r} without comparison"
        )
        return []
    regressions = []
    for name, path in GUARDED_CELLS:
        try:
            before = _cell_ops(old, path)
        except (KeyError, TypeError):
            regressions.append(
                f"{name}: previous {SCHEMA} file lacks this guarded cell"
            )
            continue
        after = _cell_ops(new, path)
        if after < before * (1.0 - tolerance):
            regressions.append(
                f"{name}: {before:,.0f} -> {after:,.0f} obj/s "
                f"({100.0 * (1.0 - after / before):.1f}% slower)"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite BENCH_robustness.json even on regression or "
        "overhead breach",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small streams (CI smoke mode; never overwrites the tracked "
        "trajectory file)",
    )
    parser.add_argument("--out", default=str(OUTPUT_PATH), help="output JSON path")
    args = parser.parse_args(argv)

    total_objects = TOTAL_OBJECTS // 4 if args.quick else TOTAL_OBJECTS
    churn_objects = CHURN_OBJECTS // 4 if args.quick else CHURN_OBJECTS
    memory_objects = MEMORY_OBJECTS // 5 if args.quick else MEMORY_OBJECTS
    print(
        f"bench_robustness: queries={N_QUERIES} churn_queries={CHURN_QUERIES} "
        f"total={total_objects} churn_total={churn_objects} "
        f"memory_total={memory_objects} chunk={CHUNK_SIZE} "
        f"max_lateness={MAX_LATENESS} backend={BACKEND}"
    )
    report = run_benchmark(total_objects, churn_objects, memory_objects)

    overhead = report["results"]["ordered"]["tolerant"]["overhead_fraction"]
    if overhead > MAX_OVERHEAD_FRACTION and not args.force:
        print(
            f"reorder overhead {100.0 * overhead:.1f}% on a fully ordered "
            f"stream exceeds the {100.0 * MAX_OVERHEAD_FRACTION:.0f}% "
            f"acceptance bar",
            file=sys.stderr,
        )
        return 1
    ratio = report["results"]["churn_skew"]["compacted_over_uncompacted"]
    if ratio < MIN_COMPACTION_RATIO and not args.force:
        # Quick mode's quarter-size stream amortizes sharing over fewer
        # chunks, so the bar only binds at full scale.
        if args.quick:
            print(
                f"note: compaction ratio {ratio:.2f}x below the "
                f"{MIN_COMPACTION_RATIO:.2f}x bar at --quick scale "
                f"(enforced on full runs only)"
            )
        else:
            print(
                f"the compacted run is only {ratio:.2f}x the uncompacted "
                f"one at q{CHURN_QUERIES} under churn — below the "
                f"{MIN_COMPACTION_RATIO:.2f}x acceptance bar",
                file=sys.stderr,
            )
            return 1

    out_path = Path(args.out)
    if args.quick and args.out == str(OUTPUT_PATH):
        print("quick mode: skipping BENCH_robustness.json update (pass --out to write)")
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
