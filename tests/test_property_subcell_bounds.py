"""Soundness of Cell-CSPOT's per-sub-cell dynamic bounds over random chunked streams.

:class:`~repro.core.cells.CellState` keeps Equation 3 per sub-cell: a NEW or
EXPIRED event raises only the entries its clipped rectangle reaches.  What
the lazy search loop needs from that is checked here after every chunk, on
every live cell, against a from-scratch sweep of the cell:

* ``upper_bound`` dominates the cell's exact maximum (Lemmas 2-3 — a bound
  that is too low would let the loop skip the cell that holds the answer),
* a candidate still flagged valid *is* that maximum, and ``dynamic_bound``
  equals its score (the lock-step invariant behind the early termination),
* the reported result is the best cell maximum.

Chunks of 1 / 3 / 16 / 48 objects put from one to dozens of events on a cell
between two searches; coordinates are free, or snapped to the cell size and
to a quarter and an eighth of it (rectangle edges on cell and sub-cell
lines, in exact binary arithmetic).  The ``"ulp"`` streams use a 1.3 × 0.7
cell and put half of the coordinates on a grid line or an ulp to either side
of it; the stream's extent starts at cell (5, 7) because the lines 5 · 1.3
and 9 · 0.7 are among the few where floor addressing and the cell's
coordinates disagree, which yields rows whose clip is empty by an ulp.
There only the
bound and the lock-step are asserted: both sweep kernels report a slab's
midpoint, and between two edges that are adjacent doubles that midpoint is
one of the edges — a point the rectangles cover differently — so what Lemma 4
does with such a candidate is the kernels' (old, ulp-sized) imprecision, not
the bounds'.  The reference sweeps use the python kernel, so the module also
runs where numpy is absent.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import SurgeMonitor
from repro.core.query import SurgeQuery
from repro.streams.objects import SpatialObject
from tests.helpers import cell_maximum

#: The streams cover 3 × 3 cells starting at this one.
FIRST_CELL = (5, 7)
EXTENT_CELLS = 3
#: Objects per stream by chunk size: small chunks settle (and are checked) often.
STREAM_OBJECTS = {1: 50, 3: 80, 16: 160, 48: 240}


def coordinate(rng, snap, size, first):
    value = rng.uniform(first * size, (first + EXTENT_CELLS) * size)
    if snap == "free" or (snap == "ulp" and rng.random() < 0.5):
        return value
    if snap == "ulp":
        line = round(value / size) * size
        return rng.choice((math.nextafter(line, -math.inf), line, math.nextafter(line, math.inf)))
    return round(value / (size * snap)) * (size * snap)


def make_stream(seed, count, snap, cell_width, cell_height):
    rng = random.Random(seed)
    timestamp = 0.0
    objects = []
    for object_id in range(count):
        timestamp += rng.choice((0.0, 0.1, 0.25, 0.5))
        objects.append(
            SpatialObject(
                x=coordinate(rng, snap, cell_width, FIRST_CELL[0]),
                y=coordinate(rng, snap, cell_height, FIRST_CELL[1]),
                timestamp=timestamp,
                weight=float(rng.randint(1, 9)),
                object_id=object_id,
            )
        )
    return objects


def check_cells(detector, exact_points):
    """Every live cell's bounds and candidate against its exact maximum."""
    query = detector.query
    best = 0.0
    for key, cell in detector.cells.items():
        maximum = cell_maximum(cell, query.alpha, query.current_length, query.past_length)
        best = max(best, maximum)
        assert maximum <= cell.upper_bound + 1e-9, key
        if cell.has_valid_candidate():
            assert abs(cell.dynamic_bound - cell.candidate.score) <= 1e-9, key
            if exact_points:
                assert abs(cell.candidate.score - maximum) <= 1e-9, key
    result = detector.result()
    assert (result is None) == (not detector.cells)
    if result is not None and exact_points:
        assert abs(result.score - best) <= 1e-9


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk_size=st.sampled_from(sorted(STREAM_OBJECTS)),
    snap=st.sampled_from(["free", 1.0, 0.25, 0.125, "ulp"]),
    alpha=st.sampled_from([0.3, 0.5, 0.8]),
)
@settings(max_examples=60, deadline=None)
def test_sub_cell_bounds_never_hide_the_answer(seed, chunk_size, snap, alpha):
    width, height = (1.3, 0.7) if snap == "ulp" else (1.0, 0.5)
    query = SurgeQuery(rect_width=width, rect_height=height, window_length=6.0, alpha=alpha)
    monitor = SurgeMonitor(query, "ccs", backend="python")
    objects = make_stream(seed, STREAM_OBJECTS[chunk_size], snap, width, height)
    for start in range(0, len(objects), chunk_size):
        monitor.push_many(objects[start : start + chunk_size])
        check_cells(monitor.detector, exact_points=snap != "ulp")
