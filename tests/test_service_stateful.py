"""Stateful property suite: the service under arbitrary operation interleavings.

A Hypothesis :class:`RuleBasedStateMachine` drives two live
:class:`~repro.service.SurgeService` instances (serial×1-shard and
serial×3-shard) through random interleavings of ``push`` / ``push_many`` /
``advance_time`` / ``add_query`` / ``remove_query`` /
``checkpoint_restore`` (kill one service and resurrect it from a durable
checkpoint mid-interleaving — the restored instance must be
indistinguishable from the other from then on, so a checkpoint/restore
cycle is unobservable), mirroring every operation onto two oracles:

* a **batch oracle** — one private :class:`~repro.core.monitor.SurgeMonitor`
  per query fed the keyword-filtered slice of exactly the same chunks.  The
  services must match it (and each other) *bit for bit* after every rule:
  same scores, same regions, same routed-object counts — regardless of the
  sharding backend;
* an **event oracle** — the same monitors fed one object at a time through
  the per-event path.  Chunk boundaries re-order floating-point
  accumulation, so this comparison is tolerance-based (the contract
  documented on :meth:`SurgeMonitor.push_many`), plus an exact check on the
  window populations.

The process executor is exercised by the cheaper deterministic suites in
``tests/test_service_differential.py`` — spawning worker processes per
Hypothesis example would dominate the runtime without adding coverage (all
backends run the identical :class:`~repro.service.shards.ShardState` code).

The module self-skips when Hypothesis is not installed (it is a test-only
dependency; the library itself stays dependency-free).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.monitor import SurgeMonitor
from repro.core.query import SurgeQuery
from repro.datasets.keywords import keyword_predicate
from repro.service import QuerySpec, SurgeService
from repro.streams.objects import SpatialObject

VOCABULARY = ("concert", "parade", "zika")
#: Detector pool for randomly-registered queries: one exact sweep-based, one
#: grid approximation, one top-k — the three result-maintenance families.
ALGORITHMS = ("ccs", "gaps", "kccs")

SCORE_RTOL = 1e-9


def scores_close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_RTOL * max(1.0, abs(a), abs(b))


#: One stream object: (time delta, x, y, weight, keyword index or None).
object_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.one_of(st.none(), st.integers(min_value=0, max_value=len(VOCABULARY) - 1)),
)


class ServiceEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.services: list[SurgeService] = []
        self.batch_oracle: dict[str, SurgeMonitor] = {}
        self.event_oracle: dict[str, SurgeMonitor] = {}
        self.specs: dict[str, QuerySpec] = {}
        self.time = 0.0
        self.next_object_id = 0
        self.next_query_index = 0
        self.workdir = Path(tempfile.mkdtemp(prefix="service-stateful-"))
        self.next_checkpoint_index = 0

    @initialize()
    def start_services(self) -> None:
        self.services = [
            SurgeService(shards=1, executor="serial"),
            SurgeService(shards=3, executor="serial"),
        ]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @rule(
        keyword_index=st.one_of(
            st.none(), st.integers(min_value=0, max_value=len(VOCABULARY) - 1)
        ),
        algorithm=st.sampled_from(ALGORITHMS),
        size=st.sampled_from((0.8, 1.0, 1.5)),
        window=st.sampled_from((15.0, 25.0)),
    )
    def add_query(self, keyword_index, algorithm, size, window) -> None:
        query_id = f"q{self.next_query_index}"
        self.next_query_index += 1
        spec = QuerySpec(
            query_id=query_id,
            query=SurgeQuery(
                rect_width=size,
                rect_height=size,
                window_length=window,
                k=2 if algorithm == "kccs" else 1,
            ),
            algorithm=algorithm,
            keyword=None if keyword_index is None else VOCABULARY[keyword_index],
            backend="python" if algorithm in ("ccs", "kccs") else None,
        )
        for service in self.services:
            service.add_query(spec)
        self.specs[query_id] = spec
        self.batch_oracle[query_id] = spec.build_monitor()
        self.event_oracle[query_id] = spec.build_monitor()

    @rule(data=st.data())
    def remove_query(self, data) -> None:
        if not self.specs:
            return
        query_id = data.draw(st.sampled_from(sorted(self.specs)), label="remove_id")
        for service in self.services:
            service.remove_query(query_id)
        del self.specs[query_id]
        del self.batch_oracle[query_id]
        del self.event_oracle[query_id]

    def _ingest(self, raw_objects) -> list[SpatialObject]:
        chunk = []
        for dt, x, y, weight, keyword_index in raw_objects:
            self.time += dt
            attributes = (
                {"keywords": (VOCABULARY[keyword_index],)}
                if keyword_index is not None
                else {}
            )
            chunk.append(
                SpatialObject(
                    x=x,
                    y=y,
                    timestamp=self.time,
                    weight=weight,
                    object_id=self.next_object_id,
                    attributes=attributes,
                )
            )
            self.next_object_id += 1
        return chunk

    def _mirror_chunk(self, chunk: list[SpatialObject]) -> None:
        """Feed one service chunk to both oracles (their defining protocols)."""
        for query_id, spec in self.specs.items():
            predicate = keyword_predicate(spec.keyword)
            matched = [obj for obj in chunk if predicate(obj)]
            if matched:
                self.batch_oracle[query_id].push_many(matched)
                for obj in matched:
                    self.event_oracle[query_id].push(obj)

    @rule(raw_objects=st.lists(object_strategy, min_size=1, max_size=12))
    def push_many(self, raw_objects) -> None:
        chunk = self._ingest(raw_objects)
        for service in self.services:
            service.push_many(chunk)
        self._mirror_chunk(chunk)

    @rule(raw_object=object_strategy)
    def push_single(self, raw_object) -> None:
        chunk = self._ingest([raw_object])
        for service in self.services:
            service.push(chunk[0])
        self._mirror_chunk(chunk)

    @rule(service_index=st.integers(min_value=0, max_value=1))
    def checkpoint_restore(self, service_index) -> None:
        """Kill one service and resurrect it from a durable checkpoint.

        The restored instance replaces the original in the fleet, so every
        subsequent rule and invariant exercises it against the survivors and
        the oracles — a checkpoint/restore cycle at an arbitrary point of an
        arbitrary operation interleaving must be unobservable.
        """
        victim = self.services[service_index]
        checkpoint_dir = self.workdir / f"ckpt-{self.next_checkpoint_index}"
        self.next_checkpoint_index += 1
        victim.checkpoint(checkpoint_dir)
        victim.close()  # the "crash": all in-memory state is gone
        self.services[service_index] = SurgeService.restore(
            checkpoint_dir, attach=False
        )

    @rule(dt=st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
    def advance_time(self, dt) -> None:
        self.time += dt
        for service in self.services:
            service.advance_time(self.time)
        for query_id in self.specs:
            self.batch_oracle[query_id].advance_time(self.time)
            self.event_oracle[query_id].advance_time(self.time)

    # ------------------------------------------------------------------
    # Equivalence checks
    # ------------------------------------------------------------------
    @invariant()
    def services_match_oracles(self) -> None:
        reference = self.services[0]
        expected_ids = sorted(self.specs)
        all_results = [service.results() for service in self.services]
        for results in all_results:
            assert sorted(results) == expected_ids
        for query_id in expected_ids:
            batch_result = self.batch_oracle[query_id].result()
            reference_result = all_results[0][query_id]
            # Bit-identical across every sharding backend AND vs the batch
            # oracle: sharding must never change an answer.
            for service, results in zip(self.services, all_results):
                got = results[query_id]
                if batch_result is None:
                    assert got is None, (
                        f"{service.executor_name}/{service.n_shards}: "
                        f"{query_id} reported a region the oracle does not have"
                    )
                else:
                    assert got is not None
                    assert got.score == batch_result.score
                    assert got.region == batch_result.region
                    assert got.point == batch_result.point
            # Chunk-boundary independence vs the per-event oracle: scores to
            # fp tolerance, window populations exactly.
            event_monitor = self.event_oracle[query_id]
            event_result = event_monitor.result()
            if (batch_result is None) != (event_result is None):
                # A zero-score optimum can be reported as None by one path
                # only when every alive object nets out to score 0.
                present = batch_result if batch_result is not None else event_result
                assert scores_close(present.score, 0.0)
            elif batch_result is not None:
                assert scores_close(batch_result.score, event_result.score)
            batch_state = self.batch_oracle[query_id].window_state()
            event_state = event_monitor.window_state()
            assert [o.object_id for o in batch_state.current] == [
                o.object_id for o in event_state.current
            ]
            assert [o.object_id for o in batch_state.past] == [
                o.object_id for o in event_state.past
            ]
        # Routed-object accounting matches across backends.
        for query_id in expected_ids:
            counts = {
                service.bus.stats(query_id).objects_routed
                for service in self.services
            }
            assert len(counts) == 1, f"{query_id}: routed counts diverge {counts}"
        del reference

    def teardown(self) -> None:
        for service in self.services:
            service.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


ServiceEquivalenceMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=30,
    deadline=None,
    print_blob=True,
)

TestServiceEquivalence = ServiceEquivalenceMachine.TestCase
