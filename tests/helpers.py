"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import random

from repro.core.sweepline import sweep_bursty_point
from repro.datasets.keywords import keyword_predicate
from repro.streams.objects import SpatialObject
from repro.streams.sources import iter_chunks
from repro.streams.windows import SlidingWindowPair

#: Relative tolerance for comparing burst scores computed through different
#: code paths (incremental accumulation vs direct summation).
SCORE_RTOL = 1e-6


def make_objects(
    count: int,
    seed: int = 0,
    extent: float = 8.0,
    max_weight: float = 10.0,
    time_step: float = 1.0,
    integer_weights: bool = False,
) -> list[SpatialObject]:
    """A deterministic random stream of spatial objects with increasing timestamps."""
    rng = random.Random(seed)
    objects = []
    for index in range(count):
        weight = (
            float(rng.randint(1, int(max_weight)))
            if integer_weights
            else rng.uniform(0.5, max_weight)
        )
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, extent),
                y=rng.uniform(0.0, extent),
                timestamp=index * time_step,
                weight=weight,
                object_id=index,
            )
        )
    return objects


def feed(detector, objects, window_length, past_window_length=None):
    """Feed objects through a window pair into a detector; return the window pair."""
    windows = SlidingWindowPair(window_length, past_window_length)
    for obj in objects:
        for event in windows.observe(obj):
            detector.process(event)
    return windows


def feed_many(detectors, objects, window_length, past_window_length=None):
    """Feed the same event stream to several detectors; return the window pair."""
    windows = SlidingWindowPair(window_length, past_window_length)
    for obj in objects:
        for event in windows.observe(obj):
            for detector in detectors:
                detector.process(event)
    return windows


def cell_maximum(cell, alpha, current_length, past_length) -> float:
    """The exact best burst score inside a cell, swept from scratch on the
    python kernel (0 when no row covers a point of it)."""
    outcome = sweep_bursty_point(
        cell.labeled_rects(), alpha, current_length, past_length, backend="python"
    )
    return 0.0 if outcome is None else outcome.score


def scores_close(a: float, b: float, rtol: float = SCORE_RTOL) -> bool:
    """Whether two burst scores agree up to relative tolerance."""
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def result_key(result):
    """Exact identity of a reported result (bitwise, no tolerance)."""
    if result is None:
        return None
    return (
        result.score,
        result.region.min_x,
        result.region.min_y,
        result.region.max_x,
        result.region.max_y,
        result.point.x,
        result.point.y,
        result.fc,
        result.fp,
    )


def result_keys(results):
    """``{query_id: result_key}`` of a ``{query_id: RegionResult}`` mapping."""
    return {query_id: result_key(result) for query_id, result in results.items()}


class IndependentMonitors:
    """The service's reference: one private monitor per query.

    Every registered spec gets its own
    :class:`~repro.core.monitor.SurgeMonitor` fed the keyword-filtered
    substream through ``push_many`` — no routing index, no shared windows,
    no shared detectors.  :class:`~repro.service.SurgeService` must be
    bit-identical to this under every executor and shard count.
    """

    def __init__(self, specs=()):
        self.monitors = {}
        self.predicates = {}
        self.routed = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec):
        """Start ``spec``'s monitor now: it sees only chunks pushed later."""
        self.monitors[spec.query_id] = spec.build_monitor()
        self.predicates[spec.query_id] = keyword_predicate(spec.keyword)
        self.routed[spec.query_id] = 0

    def remove(self, query_id):
        del self.monitors[query_id], self.predicates[query_id], self.routed[query_id]

    def push_many(self, chunk):
        """Route one chunk; ``{query_id: (result_key, objects_routed)}``."""
        step = {}
        for query_id, monitor in self.monitors.items():
            predicate = self.predicates[query_id]
            matched = [obj for obj in chunk if predicate(obj)]
            result = monitor.push_many(matched) if matched else monitor.result()
            self.routed[query_id] += len(matched)
            step[query_id] = (result_key(result), len(matched))
        return step

    def advance_time(self, stream_time):
        return {
            query_id: result_key(monitor.advance_time(stream_time))
            for query_id, monitor in self.monitors.items()
        }

    def results(self):
        return {
            query_id: result_key(monitor.result())
            for query_id, monitor in self.monitors.items()
        }

    def top_k(self):
        return {
            query_id: tuple(result_key(r) for r in monitor.top_k())
            for query_id, monitor in self.monitors.items()
        }


def replay_oracle(stream, specs, chunk_size, schedule=()):
    """Replay ``stream`` through :class:`IndependentMonitors`, same chunks.

    ``schedule`` holds ``(chunk_index, "add" | "remove", spec)`` registry
    changes, applied just before that chunk is pushed.  Returns
    ``(trace, finals, top_k, routed)``: the per-chunk ``push_many`` steps,
    then the final result keys, top-k keys and routed-object counts per
    live query.
    """
    oracle = IndependentMonitors(specs)
    trace = []
    for chunk_index, chunk in enumerate(iter_chunks(stream, chunk_size)):
        for due, action, spec in schedule:
            if due == chunk_index and action == "add":
                oracle.add(spec)
            elif due == chunk_index:
                oracle.remove(spec.query_id)
        trace.append(oracle.push_many(chunk))
    return trace, oracle.results(), oracle.top_k(), oracle.routed
