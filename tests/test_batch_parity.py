"""Parity suite: batched ingestion must match one-at-a-time ingestion.

For every detector name the same stream is pushed through two monitors —
one object at a time (``push``, the per-event path) and in chunks
(``push_many`` → ``observe_batch`` + ``apply_events``, the batched path) —
and the reported results are compared at every chunk boundary.

Notes on the contract being asserted:

* the reported *score* must agree to within a tight floating-point tolerance
  (bulk maintenance may sum the same contributions in a different order);
* the reported *point* may be a different representative of the same optimal
  region (the bursty point of a snapshot is not unique — any point of the
  maximal arrangement face is exact), so for the exact detectors each
  reported point is additionally verified to achieve the reported score
  against the actual window contents.  The verification runs in CSPOT space
  (summing the rectangle objects covering the point), which is also how the
  reported region is now derived (``region_covering_point`` chooses region
  edges so closed-region membership matches CSPOT coverage exactly; the
  historical ``rect_from_top_right`` rounding caveat on edge ties is fixed
  and pinned by ``tests/test_region_edge_tie.py``);
* the window contents themselves must match exactly;
* the approximate family (``gaps`` / ``mgaps`` / ``kgaps`` / ``kmgaps``) is
  additionally held to a tighter bar against ``process`` looped over the
  *same* lifecycle-safe event sequence (what the default ``apply_events``
  does): its batched path applies the per-event arithmetic in that order, so
  the per-cell accumulators, the reported ``score`` / ``fc`` / ``fp``, the
  top-k scores and the counters must be **equal** (``==``, no tolerance)
  after every chunk.  (Against ``push`` one object at a time only the
  tolerance above holds: a batch interleaves different objects' transitions
  differently, and float addition is not associative.)  Which of two
  *equal-score* cells is reported is unspecified across the two paths (it
  depends on heap insertion order) — already true for the batched exact
  detectors.

Chunkings are chosen so that chunk boundaries split window expiries (a chunk
starts mid-expiry-run) and so that at least one chunk contains a time jump
larger than both windows (objects whose whole NEW → GROWN → EXPIRED
lifecycle is contained in a single batch).
"""

from __future__ import annotations

import random

import pytest

from repro.core.burst import burst_score
from repro.core.monitor import DETECTOR_NAMES, SurgeMonitor, make_detector
from repro.core.query import SurgeQuery
from repro.geometry.primitives import Rect
from repro.streams.objects import EventKind, SpatialObject, WindowEvent
from repro.streams.windows import SlidingWindowPair

#: Relative tolerance on scores: the two paths apply identical per-object
#: updates, only the maintenance order differs.
SCORE_RTOL = 1e-9

#: Detectors whose reported region must be exactly optimal on every snapshot.
EXACT_NAMES = ("ccs", "bccs", "base", "ag2", "naive", "kccs")

#: The grid-based approximate family (bit-identical across the two paths).
APPROX_NAMES = ("gaps", "mgaps", "kgaps", "kmgaps")


def make_stream(count: int, seed: int, extent: float = 6.0, jump_at: int | None = None):
    """A deterministic stream; ``jump_at`` inserts a > 2|W| time jump."""
    rng = random.Random(seed)
    objects = []
    t = 0.0
    for index in range(count):
        t += rng.uniform(0.1, 0.6)
        if jump_at is not None and index == jump_at:
            t += 100.0  # far larger than both 20 s windows
        objects.append(
            SpatialObject(
                x=rng.uniform(0.0, extent),
                y=rng.uniform(0.0, extent),
                timestamp=t,
                weight=rng.uniform(0.5, 10.0),
                object_id=index,
            )
        )
    return objects


def scores_equal(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_RTOL * max(1.0, abs(a), abs(b))


def score_at_point(point, state, query) -> float:
    """Burst score at a bursty point, via closed rectangle-object coverage."""
    a, b = query.rect_width, query.rect_height
    fc = sum(
        o.weight
        for o in state.current
        if o.x <= point.x <= o.x + a and o.y <= point.y <= o.y + b
    )
    fp = sum(
        o.weight
        for o in state.past
        if o.x <= point.x <= o.x + a and o.y <= point.y <= o.y + b
    )
    return burst_score(fc / query.current_length, fp / query.past_length, query.alpha)


def assert_results_equivalent(name, index, per_event, batched, state, query):
    __tracebackhide__ = True
    if per_event is None or batched is None:
        assert per_event is None and batched is None, (
            f"{name} @ object {index}: one path reported a region, the other None "
            f"({per_event} vs {batched})"
        )
        return
    assert scores_equal(per_event.score, batched.score), (
        f"{name} @ object {index}: scores diverged "
        f"({per_event.score!r} vs {batched.score!r})"
    )
    # Same region geometry class: identical width/height.
    for attr in ("width", "height"):
        assert getattr(per_event.region, attr) == pytest.approx(
            getattr(batched.region, attr)
        )
    if name in EXACT_NAMES:
        # Both reported points must achieve the (same) optimal score on the
        # actual window snapshot — different representatives are fine, a
        # suboptimal point is not.
        for label, result in (("per-event", per_event), ("batched", batched)):
            achieved = score_at_point(result.point, state, query)
            assert scores_equal(achieved, result.score), (
                f"{name} @ object {index}: {label} point does not achieve its "
                f"reported score ({achieved!r} vs {result.score!r})"
            )


@pytest.mark.parametrize("name", DETECTOR_NAMES)
@pytest.mark.parametrize("chunk_size", [1, 7, 32])
def test_push_and_push_many_parity(name, chunk_size):
    """push(obj) one at a time vs push_many(chunk) must agree for every detector."""
    # The slow baselines get a shorter stream to keep the suite fast; the
    # window length still forces plenty of GROWN / EXPIRED traffic.
    count = 90 if name in ("naive", "ag2", "base") else 180
    stream = make_stream(count, seed=sum(map(ord, name)))
    query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0, alpha=0.5, k=3)

    per_event = SurgeMonitor(query, algorithm=make_detector(name, query))
    batched = SurgeMonitor(query, algorithm=make_detector(name, query))

    for start in range(0, len(stream), chunk_size):
        chunk = stream[start : start + chunk_size]
        result_a = None
        for obj in chunk:
            result_a = per_event.push(obj)
        result_b = batched.push_many(chunk)
        index = start + len(chunk) - 1

        assert per_event.windows.state().current == batched.windows.state().current
        assert per_event.windows.state().past == batched.windows.state().past
        assert_results_equivalent(
            name, index, result_a, result_b, batched.windows.state(), query
        )

    # Top-k parity (best-first score sequences).
    top_a = per_event.top_k(query.k)
    top_b = batched.top_k(query.k)
    assert len(top_a) == len(top_b)
    for result_a, result_b in zip(top_a, top_b):
        assert scores_equal(result_a.score, result_b.score)


@pytest.mark.parametrize("name", DETECTOR_NAMES)
def test_parity_across_chunk_splitting_an_expiry_run(name):
    """A chunk boundary placed mid-expiry and a full-lifecycle-in-one-chunk jump."""
    count = 80
    # The jump lands inside the third chunk, so that chunk contains objects
    # whose NEW, GROWN and EXPIRED events all occur within the same batch.
    stream = make_stream(count, seed=11, jump_at=41)
    query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0, alpha=0.5, k=3)

    per_event = SurgeMonitor(query, algorithm=make_detector(name, query))
    batched = SurgeMonitor(query, algorithm=make_detector(name, query))

    # Chunk size 16: the jump at index 41 happens mid-chunk (chunk 2 covers
    # 32..47), and expiry runs regularly straddle boundaries.
    for start in range(0, count, 16):
        chunk = stream[start : start + 16]
        result_a = None
        for obj in chunk:
            result_a = per_event.push(obj)
        result_b = batched.push_many(chunk)

        assert len(per_event.windows) == len(batched.windows)
        assert per_event.windows.state().current == batched.windows.state().current
        assert per_event.windows.state().past == batched.windows.state().past
        assert_results_equivalent(
            name, start, result_a, result_b, batched.windows.state(), query
        )


def test_event_kind_multiset_matches_per_object_path():
    """observe_batch emits exactly the per-object events, grouped by kind."""
    from repro.streams.windows import SlidingWindowPair

    stream = make_stream(120, seed=5, jump_at=60)
    for chunk_size in (1, 5, 17, 40):
        sequential = SlidingWindowPair(20.0)
        batched = SlidingWindowPair(20.0)
        for start in range(0, len(stream), chunk_size):
            chunk = stream[start : start + chunk_size]
            expected = []
            for obj in chunk:
                expected.extend(sequential.observe(obj))
            batch = batched.observe_batch(chunk)
            # Same events per kind, in the same relative order.
            for kind_name in ("new", "grown", "expired"):
                want = [
                    e.obj.object_id
                    for e in expected
                    if e.kind.value == kind_name
                ]
                got = [e.obj.object_id for e in getattr(batch, kind_name)]
                assert got == want, (chunk_size, start, kind_name)
            assert len(batch) == len(expected)
            assert batch.arrivals == len(chunk)
            # The grouped views partition the lifecycle-safe event tuple.
            assert sorted(
                (e.kind.value, e.obj.object_id) for e in batch.events
            ) == sorted((e.kind.value, e.obj.object_id) for e in expected)
            assert sequential.state().current == batched.state().current
            assert sequential.state().past == batched.state().past
            assert sequential.time == batched.time
            assert sequential.is_stable() == batched.is_stable()


def test_noop_event_does_not_cancel_dirty_cell_in_batch():
    """A GROWN/EXPIRED for an object the detector never saw is a no-op and
    must not cancel the pending bound refresh of a cell dirtied earlier in
    the same batch (apply_events accepts arbitrary event iterables, e.g.
    from a detector attached mid-stream)."""
    from repro.streams.objects import EventKind, WindowEvent

    query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0, alpha=0.5, k=3)
    seen = SpatialObject(x=0.5, y=0.5, timestamp=0.0, weight=5.0, object_id=1)
    unseen = SpatialObject(x=0.6, y=0.6, timestamp=0.0, weight=3.0, object_id=2)
    events = [
        WindowEvent(kind=EventKind.NEW, obj=seen, time=0.0),
        WindowEvent(kind=EventKind.GROWN, obj=unseen, time=0.0),
        WindowEvent(kind=EventKind.EXPIRED, obj=unseen, time=0.0),
    ]
    # Only the record-keyed detectors define unseen-object transitions as
    # no-ops (the gaps-family count accumulators treat them as real counts,
    # identically on both paths — a separate, pre-existing behaviour).
    for name in EXACT_NAMES:
        per_event = make_detector(name, query)
        batched = make_detector(name, query)
        for event in events:
            per_event.process(event)
        batched.apply_events(list(events))
        reference = per_event.result()
        result = batched.result()
        assert result is not None, f"{name}: batched path lost the only object"
        assert result.score == pytest.approx(reference.score, rel=1e-9), name


# ----------------------------------------------------------------------
# The approximate family: bit-identical state, not just close scores
# ----------------------------------------------------------------------
APPROX_QUERIES = {
    "plain": SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0, alpha=0.5, k=3),
    # Preferred area (skip path, grid anchored at the area origin) and a past
    # window of a different length (the two divisors the loop hoists).
    "area": SurgeQuery(
        rect_width=1.0,
        rect_height=0.8,
        window_length=20.0,
        alpha=0.3,
        area=Rect(1.0, 1.5, 5.0, 5.5),
        past_window_length=30.0,
        k=3,
    ),
}


def grids_of(detector):
    """The GAP-SURGE instances behind a detector (four for the MGAPS family)."""
    return getattr(detector, "detectors", (detector,))


def assert_approx_identical(per_event, batched, where):
    __tracebackhide__ = True
    for grid_a, grid_b in zip(grids_of(per_event), grids_of(batched), strict=True):
        assert grid_a.cells == grid_b.cells, where
        assert grid_a.live_cell_count == grid_b.live_cell_count, where
        assert grid_a.stats == grid_b.stats, where
    assert per_event.stats == batched.stats, where
    if hasattr(per_event, "combined_stats"):
        assert per_event.combined_stats == batched.combined_stats, where
    result_a, result_b = per_event.result(), batched.result()
    if result_a is None or result_b is None:
        assert result_a is None and result_b is None, where
    else:
        assert (result_a.score, result_a.fc, result_a.fp) == (
            result_b.score,
            result_b.fc,
            result_b.fp,
        ), where
    assert [r.score for r in per_event.top_k(3)] == [
        r.score for r in batched.top_k(3)
    ], where


def replay_both_paths(name, query, stream, chunk_size, as_input=lambda batch: batch):
    """Feed each chunk's event batch to ``process`` (looped) and ``apply_events``.

    ``as_input`` turns the ``EventBatch`` into what ``apply_events`` is given.
    Yields ``(start, chunk, per_event, batched)`` after every chunk.
    """
    windows = SlidingWindowPair(query.window_length, query.past_window_length)
    per_event = make_detector(name, query)
    batched = make_detector(name, query)
    for start in range(0, len(stream), chunk_size):
        chunk = stream[start : start + chunk_size]
        batch = windows.observe_batch(chunk)
        for event in batch.events:
            per_event.process(event)
        batched.apply_events(as_input(batch))
        yield start, chunk, per_event, batched


@pytest.mark.parametrize("name", APPROX_NAMES)
@pytest.mark.parametrize("query_name", sorted(APPROX_QUERIES))
@pytest.mark.parametrize("chunk_size", [1, 7, 32])
def test_approximate_family_is_bit_identical_per_chunk(name, query_name, chunk_size):
    query = APPROX_QUERIES[query_name]
    stream = make_stream(220, seed=sum(map(ord, name)) + chunk_size, jump_at=150)
    for start, _, per_event, batched in replay_both_paths(name, query, stream, chunk_size):
        assert_approx_identical(per_event, batched, (name, query_name, start))
    assert batched.stats.events_processed > len(stream)
    if query.area is not None:
        assert batched.stats.events_skipped > 0


@pytest.mark.parametrize("name", APPROX_NAMES)
def test_approximate_family_cell_born_and_emptied_inside_one_batch(name):
    """The chunk holding a > 2|W| jump: whole cell lifecycles inside one batch."""
    query = APPROX_QUERIES["plain"]
    # A sparse space (900 cells, ~110 live objects), so most arrivals open a
    # cell of their own.
    stream = make_stream(96, seed=23, extent=30.0, jump_at=72)
    cells_before: set = set()
    for start, chunk, per_event, batched in replay_both_paths(name, query, stream, 16):
        assert_approx_identical(per_event, batched, (name, start))
        grid = grids_of(batched)[0]
        if start <= 72 < start + 16:
            # Objects 64..71 arrive before the jump in this chunk and are
            # expired by it: their fresh cells never outlive the batch.
            transient = {
                grid.grid.cell_of(o.x, o.y) for o in chunk[: 72 - start]
            } - cells_before
            assert transient, "stream no longer opens a cell before the jump"
            assert not transient & set(grid.cells)
            assert all(key not in grid._score_heap for key in transient)
        cells_before = set(grid.cells)


def test_approximate_family_area_anchors_the_grids():
    query = APPROX_QUERIES["area"]
    gaps = make_detector("gaps", query)
    assert (gaps.grid.origin_x, gaps.grid.origin_y) == (1.0, 1.5)
    mgaps = make_detector("mgaps", query)
    assert [(d.grid.origin_x, d.grid.origin_y) for d in mgaps.detectors] == [
        (1.0, 1.5),
        (1.5, 1.5),
        (1.0, 1.9),
        (1.5, 1.9),
    ]


@pytest.mark.parametrize("name", APPROX_NAMES)
@pytest.mark.parametrize("as_iterable", [list, iter], ids=["list", "generator"])
def test_approximate_family_accepts_plain_event_iterables(name, as_iterable):
    """``apply_events`` takes ``EventBatch | Iterable[WindowEvent]`` (no ``len``)."""
    query = APPROX_QUERIES["area"]
    stream = make_stream(120, seed=3, jump_at=90)
    for start, _, per_event, batched in replay_both_paths(
        name, query, stream, 24, as_input=lambda batch: as_iterable(batch.events)
    ):
        assert_approx_identical(per_event, batched, (name, start))


@pytest.mark.parametrize("name", APPROX_NAMES)
def test_approximate_family_unseen_object_transitions(name):
    """GROWN / EXPIRED for a never-seen object: a no-op into an empty cell, a
    real count into a live one — identically on both paths."""
    query = APPROX_QUERIES["plain"]
    unseen = SpatialObject(x=3.6, y=3.6, timestamp=0.0, weight=3.0, object_id=2)
    orphans = [
        WindowEvent(kind=EventKind.GROWN, obj=unseen, time=0.0),
        WindowEvent(kind=EventKind.EXPIRED, obj=unseen, time=0.0),
    ]
    per_event = make_detector(name, query)
    batched = make_detector(name, query)
    for event in orphans:
        per_event.process(event)
    batched.apply_events(orphans)
    for detector in (per_event, batched):
        assert detector.result() is None
        assert all(not grid.cells for grid in grids_of(detector))
        assert detector.stats.events_processed == 2
        assert detector.stats.events_skipped == 0
    assert_approx_identical(per_event, batched, name)

    # Into a live cell the same transitions count (a pre-existing behaviour
    # of the count accumulators): the GROWN moves the cell's only count to
    # the past window, the EXPIRED then empties and drops the cell.
    seen = SpatialObject(x=3.5, y=3.5, timestamp=0.0, weight=5.0, object_id=1)
    events = [WindowEvent(kind=EventKind.NEW, obj=seen, time=0.0), orphans[0]]
    for event in events:
        per_event.process(event)
    batched.apply_events(events)
    assert_approx_identical(per_event, batched, name)
    assert batched.result() is not None
    per_event.process(orphans[1])
    batched.apply_events(orphans[1:])
    assert_approx_identical(per_event, batched, name)
    assert batched.result() is None
