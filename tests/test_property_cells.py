"""Model-based property test of the columnar cell state.

:class:`~repro.core.cells.CellState` keeps its rectangles as parallel columns
and finds the row of a GROWN / EXPIRED event by position (windows are FIFO),
falling back to a search.  The model below is the layout it replaced — a dict
of records keyed by object id, in arrival order — driven by the same random
event sequence: FIFO transitions, forced out-of-order ones (a row grows or
expires before older rows), transitions of objects the cell never saw (a
detector attached mid-stream), repeated GROWN events, and rectangles whose
clip is empty by an ulp (they count in ``len`` and ``Us`` but are left out of
sweeps and raise no ``Ud``).

The model's dynamic bound is the paper's scalar Equation 3: every NEW /
EXPIRED event since the last search adds its gain.  The cell keeps that sum
per sub-cell, so the scalar is its *ceiling*: the cell's exact maximum ≤ the
cell's ``Ud`` ≤ the model's, with equality on the right while at most one
such event has happened since the search (Equation 3 verbatim).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import CellState
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.geometry.primitives import Rect
from tests.helpers import cell_maximum

BOUNDS = Rect(0.0, 0.0, 1.0, 1.0)
CURRENT_LENGTH = 4.0
PAST_LENGTH = 6.0
ALPHA = 0.3


class RecordModel:
    """The dict-of-records cell: one mutable record per object id."""

    def __init__(self):
        self.records = {}  # object id -> [min_x, min_y, max_x, max_y, weight, in_current]
        self.static_bound = 0.0
        self.dynamic_bound = float("inf")
        self.raises_since_search = 0  # NEW / EXPIRED events that raised Ud

    def add(self, object_id, x, y, max_x, max_y, weight):
        record = self.records[object_id] = [
            max(x, BOUNDS.min_x), max(y, BOUNDS.min_y),
            min(max_x, BOUNDS.max_x), min(max_y, BOUNDS.max_y), weight, True,
        ]
        self.static_bound += weight / CURRENT_LENGTH
        self.raise_dynamic(record, weight / CURRENT_LENGTH)

    def raise_dynamic(self, record, gain):
        if self.dynamic_bound != float("inf") and not is_empty_clip(LabeledRect(*record)):
            self.dynamic_bound += gain
            self.raises_since_search += 1

    def search(self, cell_maximum):
        self.dynamic_bound = cell_maximum
        self.raises_since_search = 0

    def grow(self, object_id, weight):
        record = self.records.get(object_id)
        if record is None:
            return False
        record[5] = False
        self.static_bound -= weight / CURRENT_LENGTH
        return True

    def expire(self, object_id, weight):
        record = self.records.pop(object_id, None)
        if record is None:
            return False
        self.raise_dynamic(record, ALPHA * weight / PAST_LENGTH)
        return True

    def rows(self):
        return [(object_id, LabeledRect(*record)) for object_id, record in self.records.items()]


def is_empty_clip(rect):
    return rect.min_x > rect.max_x or rect.min_y > rect.max_y


def assert_same(cell, model):
    rows = model.rows()
    assert list(zip(cell.ids, cell.rects)) == rows
    assert len(cell) == len(cell.rects) == len(rows)
    assert cell.static_bound == model.static_bound
    assert cell_maximum(cell, ALPHA, CURRENT_LENGTH, PAST_LENGTH) <= cell.dynamic_bound + 1e-9
    assert cell.dynamic_bound <= model.dynamic_bound
    if model.raises_since_search <= 1:
        assert cell.dynamic_bound == model.dynamic_bound
    labels = [rect.in_current for _, rect in rows]
    leading_past = next((i for i, current in enumerate(labels) if current), len(labels))
    assert cell.grown == leading_past
    swept = [rect for _, rect in rows if not is_empty_clip(rect)]
    assert cell.degenerate == len(rows) - len(swept)
    assert list(cell.labeled_rects()) == swept
    if swept:
        assert sweep_bursty_point(
            cell.labeled_rects(), ALPHA, CURRENT_LENGTH, PAST_LENGTH, backend="python"
        ) == sweep_bursty_point(swept, ALPHA, CURRENT_LENGTH, PAST_LENGTH, backend="python")


coordinate = st.floats(min_value=-0.875, max_value=0.875, allow_nan=False, width=32)
weight = st.integers(min_value=1, max_value=9).map(float)
pick = st.integers(min_value=0, max_value=10**6)
operation = st.one_of(
    st.tuples(st.just("new"), coordinate, coordinate, weight),
    # Ends an ulp short of the cell's left edge: an empty clip.
    st.tuples(st.just("new"), st.just(-1.5), coordinate, weight).map(
        lambda op: op + (1.4999999,)
    ),
    st.tuples(st.sampled_from(["grow", "expire"]), st.just("fifo"), pick),
    st.tuples(st.sampled_from(["grow", "expire"]), st.just("any"), pick),
    st.tuples(st.sampled_from(["grow", "expire"]), st.just("unseen"), pick),
    st.tuples(st.just("search")),
)


@given(operations=st.lists(operation, max_size=60))
@settings(max_examples=300, deadline=None)
def test_columns_match_the_dict_of_records_model(operations):
    cell, model = CellState(bounds=BOUNDS), RecordModel()
    weights = {}
    next_id = 100
    for op in operations:
        if op[0] == "new":
            _, x, y, w, *width = op
            max_x, max_y = x + (width[0] if width else 1.0), y + 1.0
            weights[next_id] = w
            cell.add(next_id, x, y, max_x, max_y, w, w / CURRENT_LENGTH)
            model.add(next_id, x, y, max_x, max_y, w)
            next_id += 1
        elif op[0] == "search":
            # A search makes Ud the cell maximum; Equation 3 then moves it.
            cell.dynamic_bound = cell_maximum(cell, ALPHA, CURRENT_LENGTH, PAST_LENGTH)
            model.search(cell.dynamic_bound)
        else:
            kind, how, index = op
            live = list(model.records)
            if how == "unseen" or not live:
                object_id = 10**9 + index
            elif how == "any":
                object_id = live[index % len(live)]  # out of order, or a repeat
            elif kind == "expire":
                object_id = live[0]
            else:  # the oldest current row, as FIFO windows would pick
                current = [i for i in live if model.records[i][5]]
                object_id = current[0] if current else live[0]
            w = weights.get(object_id, 5.0)
            if kind == "grow":
                assert cell.grow(object_id, w / CURRENT_LENGTH) == model.grow(object_id, w)
            else:
                assert cell.expire(object_id, ALPHA * w / PAST_LENGTH) == model.expire(
                    object_id, w
                )
        assert_same(cell, model)
