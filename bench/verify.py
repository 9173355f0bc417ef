"""Output verification, run after timing; any problem fails the command.

Every check recomputes an answer from the *raw generated stream* — the
windows are rebuilt from timestamps, region scores are summed from the
objects a region covers — and compares it with what the program reported.
Where a second opinion is needed (is the reported region the optimum? is the
approximation inside its bound?) the reference is a from-scratch computation
on a different code path from the incremental one being measured.

Checks return a list of problem strings; an empty list means correct.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Any, Iterable, Sequence

from repro.core.burst import burst_score
from repro.core.query import SurgeQuery
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.service.spec import QuerySpec
from repro.streams.objects import SpatialObject

#: Relative tolerance for scores summed in a different order than the
#: program's incremental accumulators (float64 associativity only).
REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def window_contents(
    ordered: Sequence[SpatialObject], query: SurgeQuery
) -> tuple[Sequence[SpatialObject], Sequence[SpatialObject]]:
    """``(current, past)`` windows at the time of the last object.

    ``ordered`` is everything the query has seen, in timestamp order.  The
    cutoffs follow the paper: ``Wc = (t-|W|, t]``, ``Wp = (t-2|W|, t-|W|]``.
    """
    if not ordered:
        return (), ()
    time = ordered[-1].timestamp
    stamp = attrgetter("timestamp")
    grown = bisect_right(ordered, time - query.current_length, key=stamp)
    expired = bisect_right(
        ordered, time - (query.current_length + query.past_length), key=stamp
    )
    return ordered[grown:], ordered[expired:grown]


def region_score(region, current, past, query: SurgeQuery) -> float:
    """Burst score of the closed ``region`` summed from the raw objects."""

    def mass(objects: Iterable[SpatialObject]) -> float:
        return sum(
            obj.weight
            for obj in objects
            if region.min_x <= obj.x <= region.max_x
            and region.min_y <= obj.y <= region.max_y
        )

    return burst_score(
        mass(current) / query.current_length,
        mass(past) / query.past_length,
        query.alpha,
    )


def exact_optimum(current, past, query: SurgeQuery, backend: str) -> float:
    """Best burst score over the whole snapshot, by one full sweep."""
    rects = [
        LabeledRect(
            obj.x, obj.y, obj.x + query.rect_width, obj.y + query.rect_height,
            obj.weight, in_current,
        )
        for objects, in_current in ((current, True), (past, False))
        for obj in objects
    ]
    outcome = sweep_bursty_point(
        rects, query.alpha, query.current_length, query.past_length, backend=backend
    )
    return 0.0 if outcome is None else outcome.score


def check_exact(
    ordered: Sequence[SpatialObject],
    query: SurgeQuery,
    boundaries: Sequence[tuple[int, Any]],
) -> list[str]:
    """Exact-detector check at chunk boundaries.

    ``boundaries`` holds ``(objects seen so far, reported result)``.  At each
    one the reported region's score is recomputed from the objects it covers
    and must equal both the reported score and the optimum of a full-snapshot
    sweep.  The sweep uses the default kernel everywhere and, at the last
    boundary, the dependency-free ``python`` kernel as well (one ~2 s sweep:
    the reference must not share the numpy kernel with the program).
    """
    problems = []
    for position, (seen, result) in enumerate(boundaries):
        label = f"boundary after {seen} objects"
        current, past = window_contents(ordered[:seen], query)
        if result is None:
            problems.append(f"{label}: no result over a non-empty window")
            continue
        recomputed = region_score(result.region, current, past, query)
        if not close(recomputed, result.score):
            problems.append(
                f"{label}: reported score {result.score!r} but the region "
                f"covers objects scoring {recomputed!r}"
            )
        backends = ["auto"]
        if position == len(boundaries) - 1:
            backends.append("python")
        for backend in backends:
            optimum = exact_optimum(current, past, query, backend)
            if not close(optimum, result.score):
                problems.append(
                    f"{label}: reported score {result.score!r} is not the "
                    f"optimum {optimum!r} of a full {backend} sweep"
                )
    return problems


def routed_by_keyword(
    ordered: Sequence[SpatialObject], specs: Iterable[QuerySpec]
) -> dict:
    """``{routing keyword: the substream its queries see}`` (``None`` = all)."""
    routes: dict = {}
    for spec in specs:
        if spec.keyword not in routes:
            routes[spec.keyword] = (
                list(ordered)
                if spec.keyword is None
                else [obj for obj in ordered if spec.matches(obj)]
            )
    return routes


def fresh_result(spec: QuerySpec, seen: Sequence[SpatialObject]):
    """What a brand-new monitor reports after ingesting only the objects
    still alive in the two windows — a from-scratch answer to compare the
    long-running incremental one against."""
    current, past = window_contents(seen, spec.query)
    monitor = spec.build_monitor()
    return monitor.push_many(list(past) + list(current))


def check_approximate(
    spec: QuerySpec, seen: Sequence[SpatialObject], result, *, bound: bool
) -> list[str]:
    """One approximate (gaps/mgaps) query's final result.

    The reported region's score must be what its objects sum to, must match
    a from-scratch monitor, and (with ``bound``) must sit between
    ``(1-α)/4`` of the exact optimum and the optimum itself.
    """
    label = f"query {spec.query_id}"
    if result is None:
        return [f"{label}: no result over a non-empty window"]
    problems = []
    query = spec.query
    current, past = window_contents(seen, query)
    recomputed = region_score(result.region, current, past, query)
    if not close(recomputed, result.score):
        problems.append(
            f"{label}: reported score {result.score!r} but the region covers "
            f"objects scoring {recomputed!r}"
        )
    fresh = fresh_result(spec, seen)
    if fresh is None or not close(fresh.score, result.score):
        problems.append(
            f"{label}: a from-scratch monitor reports "
            f"{None if fresh is None else fresh.score!r}, the service {result.score!r}"
        )
    if bound:
        optimum = exact_optimum(current, past, query, "auto")
        floor = (1.0 - query.alpha) / 4.0 * optimum
        if result.score < floor - REL_TOL or result.score > optimum * (1 + REL_TOL):
            problems.append(
                f"{label}: score {result.score!r} outside "
                f"[(1-α)/4·{optimum!r}, {optimum!r}]"
            )
    return problems


def replay_monitor(spec: QuerySpec, chunks: Iterable[Sequence[SpatialObject]]):
    """Final result of an independent monitor fed the same chunking the
    service used: bit-identical to the service's, not merely close."""
    monitor = spec.build_monitor()
    result = None
    for chunk in chunks:
        matched = [obj for obj in chunk if spec.matches(obj)]
        if matched:
            result = monitor.push_many(matched)
    return result
