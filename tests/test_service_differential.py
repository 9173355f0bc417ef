"""Differential suite: the multi-query service ≡ N independent monitors.

The defining contract of :class:`repro.service.SurgeService` is that
registering N queries on one shared stream is *observationally identical* to
running N private :class:`~repro.core.monitor.SurgeMonitor`\\ s, each over
the keyword-filtered substream, with the same chunk boundaries:

* one service hosting a query per detector name (all 10
  :data:`~repro.core.monitor.DETECTOR_NAMES`, heterogeneous keywords /
  rectangle sizes / window lengths / k) is replayed chunk by chunk, and
  after **every** chunk each query's update must match its oracle monitor
  bit for bit — score, region, point, and top-k lists;
* the whole replay is repeated under the in-process executor backends
  (``serial``, ``process``; ``remote`` has its own suite in
  ``test_distributed.py``) and several shard counts; the per-chunk traces
  must be identical across all of them — sharding, the execution backend,
  and the shared-work plan (inverted keyword routing + shared window groups
  and detector units) must never change an answer;
* routing statistics (objects routed per query) must equal the oracle
  filter counts.

Chunk sizes are chosen to hit ragged boundaries (chunks that split expiry
runs) and a chunk larger than the remaining stream.
"""

from __future__ import annotations

import random

import pytest

from repro.core.monitor import DETECTOR_NAMES
from repro.core.query import SurgeQuery
from repro.datasets.keywords import filter_by_keyword
from repro.service import QuerySpec, SurgeService
from repro.streams.objects import SpatialObject
from repro.streams.sources import iter_chunks
from tests.helpers import replay_oracle, result_key

VOCABULARY = ("concert", "parade", "zika", "festival")

#: (executor, shards) combinations replayed against the oracle.
EXECUTOR_GRID = (
    ("serial", 1),
    ("serial", 3),
    ("process", 2),
)

CHUNK_SIZE = 57  # ragged: does not divide the stream length


def make_keyword_stream(count: int = 340, seed: int = 97) -> list[SpatialObject]:
    """Keyword-tagged stream with irregular arrivals and one big time jump."""
    rng = random.Random(seed)
    stream = []
    t = 0.0
    for index in range(count):
        t += rng.uniform(0.05, 0.5)
        if index == count // 2:
            t += 150.0  # larger than every query window pair: full lifecycles
        keywords = (rng.choice(VOCABULARY),) if rng.random() < 0.85 else ()
        stream.append(
            SpatialObject(
                x=rng.uniform(0.0, 6.0),
                y=rng.uniform(0.0, 6.0),
                timestamp=t,
                weight=rng.uniform(0.5, 10.0),
                object_id=index,
                attributes={"keywords": keywords} if keywords else {},
            )
        )
    return stream


def make_specs() -> list[QuerySpec]:
    """One query per detector name, heterogeneous in every query dimension."""
    specs = []
    for index, name in enumerate(DETECTOR_NAMES):
        keyword = VOCABULARY[index % len(VOCABULARY)] if index % 3 else None
        size = (0.8, 1.0, 1.4)[index % 3]
        specs.append(
            QuerySpec(
                query_id=f"{name}-q",
                query=SurgeQuery(
                    rect_width=size,
                    rect_height=size,
                    window_length=(15.0, 20.0, 30.0)[index % 3],
                    alpha=0.5,
                    k=3 if name.startswith("k") else 1,
                ),
                algorithm=name,
                keyword=keyword,
                backend="python" if name in ("ccs", "bccs", "base", "ag2", "naive", "kccs") else None,
            )
        )
    return specs


def replay_service(stream, specs, executor, shards, chunk_size=CHUNK_SIZE):
    """Per-chunk (query_id -> result key) trace plus final top-k trace."""
    trace = []
    with SurgeService(specs, shards=shards, executor=executor) as service:
        for updates in service.run(stream, chunk_size):
            trace.append(
                {u.query_id: (result_key(u.result), u.objects_routed) for u in updates}
            )
        top_k = {
            query_id: tuple(result_key(r) for r in results)
            for query_id, results in service.top_k().items()
        }
        routed = {
            query_id: stats.objects_routed
            for query_id, stats in service.stats().per_query.items()
        }
    return trace, top_k, routed


@pytest.fixture(scope="module")
def stream():
    return make_keyword_stream()


@pytest.fixture(scope="module")
def oracle(stream):
    return replay_oracle(stream, make_specs(), CHUNK_SIZE)


@pytest.mark.parametrize(
    "executor,shards", EXECUTOR_GRID, ids=[f"{e}-{s}shard" for e, s in EXECUTOR_GRID]
)
def test_service_equals_independent_monitors(stream, oracle, executor, shards):
    """Every chunk, every detector: service result == oracle monitor result."""
    oracle_trace, _, oracle_top_k, oracle_routed = oracle
    trace, top_k, routed = replay_service(stream, make_specs(), executor, shards)
    assert len(trace) == len(oracle_trace)
    for chunk_index, (got, want) in enumerate(zip(trace, oracle_trace)):
        assert got == want, (
            f"{executor}/{shards} shards diverged from the single-monitor "
            f"oracle at chunk {chunk_index}"
        )
    assert top_k == oracle_top_k
    assert routed == oracle_routed


def test_routing_matches_keyword_filter(stream):
    """Per-query routed counts equal the case-study filter on the substream."""
    specs = make_specs()
    _, _, _, routed = replay_oracle(stream, specs, CHUNK_SIZE)
    for spec in specs:
        if spec.keyword is None:
            assert routed[spec.query_id] == len(stream)
        else:
            assert routed[spec.query_id] == len(
                filter_by_keyword(list(stream), spec.keyword)
            )


def test_chunk_boundaries_do_not_change_final_answers(stream):
    """Final answers agree across chunkings (scores to fp tolerance).

    Different chunk boundaries re-order the floating-point accumulation, so
    this is tolerance-based — the bitwise guarantee above is per-boundary.
    """
    specs = make_specs()
    baselines = {}
    for chunk_size in (1, 57, 10_000):
        _, _, top_k, _ = replay_oracle(stream, specs, chunk_size=chunk_size)
        for query_id, results in top_k.items():
            scores = tuple(r[0] for r in results)
            if query_id not in baselines:
                baselines[query_id] = scores
            else:
                assert len(scores) == len(baselines[query_id])
                for a, b in zip(scores, baselines[query_id]):
                    assert a == pytest.approx(b, rel=1e-9), (
                        f"{query_id}: final scores diverged at chunk size "
                        f"{chunk_size}"
                    )


def test_mid_stream_registration_equals_late_monitor(stream):
    """A query added mid-stream behaves like a monitor started at that point
    (the registration-epoch rule gets a dedicated same-keyword test in
    ``test_service_shared_plan.py``).
    """
    specs = make_specs()[:2]
    late_spec = QuerySpec(
        query_id="late",
        query=SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0),
        algorithm="ccs",
        keyword="concert",
        backend="python",
    )
    split_chunk = 3
    trace = []
    with SurgeService(specs, shards=2, executor="serial") as service:
        for chunk_index, chunk in enumerate(iter_chunks(stream, CHUNK_SIZE)):
            if chunk_index == split_chunk:
                service.add_query(late_spec)
            trace.append(
                {
                    u.query_id: (result_key(u.result), u.objects_routed)
                    for u in service.push_many(chunk)
                }
            )
    want, _, _, _ = replay_oracle(
        stream, specs, CHUNK_SIZE, schedule=[(split_chunk, "add", late_spec)]
    )
    assert trace == want
    assert trace[-1]["late"][0] is not None
