"""CI smoke: the overload tier degrades gracefully and changes no answer.

Four legs, all in-process, all over flash-crowd feeds from the shared
:class:`~repro.streams.faults.FaultInjector`:

* **bounded memory** — a ``max_inflight_chunks`` budget plus a
  never-draining ``drop_oldest`` subscription: after an 8x flash crowd the
  peak number of buffered arrivals must not exceed the budget, and the
  subscription's conservation law ``offered == delivered + dropped +
  depth`` must hold exactly (nothing is lost silently — every dropped
  update is counted);
* **priority shedding** — a degraded service sheds its priority-0 route
  class (counted) while every surviving high-priority query stays
  bit-identical to an unloaded twin run with no overload tier at all;
* **compaction** — a duplicate query registered mid-stream lands in its
  own registration epoch (no sharing); a compaction pass merges it back
  into the veteran's window group and detector unit, and the compacted
  service's results stay bit-identical to a never-compacted twin *and* to
  the independent-monitor oracle (``tests/helpers.replay_oracle``);
* **strict mode** — ``policy="error"`` refuses the same flash crowd with a
  typed :class:`~repro.service.OverloadError` instead of degrading.

Exercised as a standalone script (``make smoke-overload``) so CI covers
the tier end to end on both dependency legs; everything here is
stdlib-only.

Usage::

    PYTHONPATH=src python scripts/overload_smoke.py [--objects N]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from repro.core.query import SurgeQuery  # noqa: E402
from repro.service import (  # noqa: E402
    OverloadConfig,
    OverloadError,
    QuerySpec,
    SurgeService,
)
from repro.streams.faults import FaultInjector  # noqa: E402
from repro.streams.objects import SpatialObject  # noqa: E402
from repro.streams.sources import iter_chunks  # noqa: E402
from tests.helpers import replay_oracle, result_keys  # noqa: E402

import random  # noqa: E402

CHUNK_SIZE = 64
MAX_LATENESS = 3.0
SEED = 20180416
VOCABULARY = ("concert", "parade", "zika", "festival")


def make_flash_crowd(n_objects: int) -> list:
    rng = random.Random(SEED)
    t = 0.0
    objects = []
    for index in range(n_objects):
        t += rng.uniform(0.05, 0.35)
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, 6.0),
                y=rng.uniform(0.0, 6.0),
                timestamp=t,
                weight=rng.uniform(0.5, 8.0),
                object_id=index,
                attributes={"keywords": (rng.choice(VOCABULARY),)},
            )
        )
    injector = FaultInjector(
        objects,
        seed=SEED,
        disorder_fraction=0.05,
        max_disorder=MAX_LATENESS,
        flash_crowd_factor=8.0,
        flash_crowd_span=(0.2, 0.8),
    )
    return injector.materialize()


def make_specs(priorities: dict[str, int] | None = None) -> list[QuerySpec]:
    """Four queries on three route classes; ``priorities`` maps id -> rank."""
    priorities = priorities or {}
    base = [
        ("concerts", "concert", 30.0, (1.0, 1.0)),
        ("festivals", "festival", 30.0, (1.2, 0.8)),
        ("parades-a", "parade", 20.0, (1.0, 1.0)),
        ("parades-b", "parade", 20.0, (0.8, 1.2)),
    ]
    return [
        QuerySpec(
            query_id=query_id,
            query=SurgeQuery(
                rect_width=rect[0], rect_height=rect[1], window_length=window
            ),
            algorithm="ccs",
            keyword=keyword,
            backend="python",
            priority=priorities.get(query_id, 0),
        )
        for query_id, keyword, window, rect in base
    ]


def run_service(arrivals, specs, chunk_size=CHUNK_SIZE, **kwargs):
    service = SurgeService(specs, max_lateness=MAX_LATENESS, **kwargs)
    with service:
        for _ in service.run(arrivals, chunk_size):
            pass
        return service.results(), service


def bounded_memory_leg(arrivals) -> None:
    budget_chunks = 1
    with SurgeService(
        make_specs(), max_lateness=MAX_LATENESS, max_inflight_chunks=budget_chunks
    ) as service:
        # A subscriber that never drains: its queue must stay bounded and
        # every update must be accounted for — delivered, dropped or queued.
        laggard = service.bus.open_subscription(maxsize=64, policy="drop_oldest")
        chunks = 0
        for _ in service.run(arrivals, CHUNK_SIZE):
            chunks += 1
        ingest = service.ingest_stats()
        bound = budget_chunks * CHUNK_SIZE
        assert ingest.peak_buffered <= bound, (
            f"peak buffered {ingest.peak_buffered} exceeds the "
            f"{bound}-object in-flight budget"
        )
        assert ingest.force_released > 0, "flash crowd never hit the budget"
        assert laggard.depth <= 64
        assert laggard.dropped > 0, "the laggard never overflowed"
        assert laggard.offered == laggard.delivered + laggard.dropped + laggard.depth, (
            "subscription conservation law violated: "
            f"{laggard.counters()}"
        )
        assert laggard.offered == chunks * len(service.query_ids)
    print(
        f"smoke[memory]: peak buffered {ingest.peak_buffered} <= {bound}, "
        f"force_released={ingest.force_released}, laggard dropped "
        f"{laggard.dropped} of {laggard.offered} (all counted) — OK"
    )


def shedding_leg(arrivals) -> None:
    priorities = {"concerts": 5, "festivals": 5}
    config = OverloadConfig(
        high_watermark_chunks=1.0,
        low_watermark_chunks=0.25,
        policy="shed",
        shed_below_priority=5,
    )
    degraded_results, degraded = run_service(
        arrivals, make_specs(priorities), overload=config, max_inflight_chunks=4
    )
    overload = degraded.overload_stats()
    assert overload.entered_degraded >= 1, "flash crowd never crossed the watermark"
    assert overload.chunks_shed > 0, "degraded mode shed nothing"
    shed_ids = {
        query_id
        for query_id, stats in degraded.stats().per_query.items()
        if stats.chunks_shed > 0
    }
    assert shed_ids == {"parades-a", "parades-b"}, shed_ids

    unloaded_results, _ = run_service(arrivals, make_specs(priorities))
    for query_id in ("concerts", "festivals"):
        assert repr(degraded_results[query_id]) == repr(unloaded_results[query_id]), (
            f"high-priority {query_id} diverged under load shedding"
        )
    print(
        f"smoke[shed]: entered degraded {overload.entered_degraded}x, shed "
        f"{overload.chunks_shed} route-chunks from the parade class; both "
        f"priority-5 queries bit-identical to the unloaded run — OK"
    )


def compaction_leg(arrivals) -> None:
    # This leg is about churn, not disorder: replay the time-sorted stream
    # in strict mode so the oracle sees exactly the service's chunks.
    ordered = sorted(arrivals, key=lambda obj: obj.timestamp)
    chunks = list(iter_chunks(ordered, CHUNK_SIZE))
    split = len(chunks) // 3
    specs = make_specs()
    late = QuerySpec(
        query_id="late-dup",
        query=specs[0].query,
        algorithm=specs[0].algorithm,
        keyword=specs[0].keyword,
        backend=specs[0].backend,
    )

    def churn_run(compact):
        # Compaction runs on the cadence, not eagerly: right after
        # registration the newcomer's window trails the veteran's, so the
        # safe-boundary check defers the merge until the contents coincide.
        with SurgeService(
            specs, compact_every_chunks=8 if compact else None
        ) as service:
            for index, chunk in enumerate(chunks):
                if index == split:
                    service.add_query(late)
                service.push_many(chunk)
            merged = service.overload_stats().queries_compacted
            return result_keys(service.results()), merged

    compacted, merged = churn_run(compact=True)
    assert merged == 1, f"expected the late duplicate to merge, got {merged}"
    churned, _ = churn_run(compact=False)
    _, oracle, _, _ = replay_oracle(
        ordered, specs, CHUNK_SIZE, schedule=[(split, "add", late)]
    )
    assert compacted == churned, "compaction changed an answer"
    assert compacted == oracle, "shared plan diverged from independent monitors"
    print(
        "smoke[compact]: late duplicate merged back into the veteran's "
        "unit; compacted == never-compacted == oracle, bit for bit — OK"
    )


def strict_leg(arrivals) -> None:
    config = OverloadConfig(
        high_watermark_chunks=1.0, low_watermark_chunks=0.25, policy="error"
    )
    try:
        run_service(arrivals, make_specs(), overload=config, max_inflight_chunks=4)
    except OverloadError as exc:
        assert exc.depth_chunks >= 1.0
        print(
            f"smoke[strict]: policy=error refused the flash crowd at depth "
            f"{exc.depth_chunks:.1f} chunks — OK"
        )
        return
    raise AssertionError("policy=error swallowed the flash crowd silently")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=12_000)
    args = parser.parse_args()
    started = time.perf_counter()
    arrivals = make_flash_crowd(args.objects)
    print(
        f"smoke: {len(arrivals)} arrivals, 8x flash crowd over the middle "
        f"60%, chunk size {CHUNK_SIZE}",
        flush=True,
    )
    bounded_memory_leg(arrivals)
    shedding_leg(arrivals)
    compaction_leg(arrivals)
    strict_leg(arrivals)
    print(f"smoke: all four overload legs passed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
