"""``RectColumns``: the kernels' one input type, and its converter.

A cell hands the sweep kernels its own columns; everyone else hands a
sequence of ``LabeledRect``-shaped records that is converted once.  Both
routes must give the same — ``==``, not merely close — ``SweepResult`` on
every kernel, on either side of ``auto``'s python→numpy crossover.
"""

import pickle
import random
from array import array

import pytest

from repro.core.sweep_backends import (
    AUTO_NUMPY_THRESHOLD,
    AdaptiveSweepBackend,
    RectColumns,
    as_columns,
    available_backends,
    clip_rects,
    get_backend,
)
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.geometry.primitives import Rect


def _fields(rect):
    return (rect.min_x, rect.min_y, rect.max_x, rect.max_y, rect.weight, rect.in_current)


def random_rects(rng, count):
    rects = []
    for _ in range(count):
        x, y = rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)
        rects.append(
            LabeledRect(
                x, y, x + rng.uniform(0.0, 2.0), y + rng.uniform(0.0, 2.0),
                float(rng.randint(1, 50)), rng.random() < 0.6,
            )
        )
    return rects


class TestConversion:
    def test_columns_round_trip_the_rectangles(self):
        rects = random_rects(random.Random(1), 9)
        columns = RectColumns(rects)
        assert len(columns) == 9 and list(columns) == rects
        assert columns.min_x == array("d", [r.min_x for r in rects])
        assert columns.in_current == array("b", [r.in_current for r in rects])
        assert all(
            isinstance(column, array) and column.typecode == "d"
            for column in (columns.min_x, columns.min_y, columns.max_x,
                           columns.max_y, columns.weight)
        )

    def test_any_iterable_of_rect_shaped_records_converts_in_one_pass(self):
        rects = random_rects(random.Random(2), 5)
        assert list(RectColumns(iter(rects))) == rects
        assert list(RectColumns(r for r in rects)) == rects
        # Integer coordinates and weights become floats.
        assert list(RectColumns([LabeledRect(0, 0, 1, 2, 3, True)])) == [
            LabeledRect(0.0, 0.0, 1.0, 2.0, 3.0, True)
        ]
        # Ready rows (6-tuples in column order) skip the attribute reads.
        assert list(RectColumns(rows=(tuple(r) for r in map(_fields, rects)))) == rects

    def test_empty_and_pickle(self):
        columns = RectColumns()
        assert len(columns) == 0 and not columns and list(columns) == []
        # With and without the early return for a sized empty snapshot: the
        # same six columns, each its own array.
        for empty in (columns, RectColumns([]), RectColumns(iter(())), RectColumns(rows=())):
            arrays = [getattr(empty, name) for name in RectColumns.__slots__]
            assert [a.typecode for a in arrays] == list("dddddb") and not any(arrays)
            assert len({id(a) for a in arrays}) == 6
        columns = RectColumns(random_rects(random.Random(3), 4))
        assert list(pickle.loads(pickle.dumps(columns))) == list(columns)

    def test_as_columns_passes_columns_through(self):
        columns = RectColumns(random_rects(random.Random(4), 3))
        assert as_columns(columns) is columns
        assert list(as_columns(list(columns))) == list(columns)

    def test_clip_rects_returns_columns(self):
        bounds = Rect(1.0, 1.0, 2.0, 2.0)
        rects = [
            LabeledRect(0.0, 0.0, 1.5, 3.0, 2.0, True),
            LabeledRect(2.5, 0.0, 3.0, 3.0, 9.0, True),  # misses the bounds
            LabeledRect(1.2, 1.4, 1.3, 1.5, 4.0, False),
        ]
        clipped = clip_rects(rects, bounds)
        assert isinstance(clipped, RectColumns)
        assert list(clipped) == [
            LabeledRect(1.0, 1.0, 1.5, 2.0, 2.0, True),
            LabeledRect(1.2, 1.4, 1.3, 1.5, 4.0, False),
        ]


#: Sizes either side of the shipped crossover, and well past a kernel block.
SIZES = sorted({1, 2, AUTO_NUMPY_THRESHOLD - 1, AUTO_NUMPY_THRESHOLD,
                AUTO_NUMPY_THRESHOLD + 1, 97, 260})


class TestKernelInputParity:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("count", SIZES)
    def test_columns_and_record_list_sweep_identically(self, backend, count):
        kernel = get_backend(backend)
        for seed in range(3):
            rng = random.Random(9000 + 17 * count + seed)
            rects = random_rects(rng, count)
            alpha = rng.choice([0.0, 0.5, 0.9])
            from_list = kernel.sweep(rects, alpha, 30.0, 45.0)
            from_columns = kernel.sweep(RectColumns(rects), alpha, 30.0, 45.0)
            assert from_columns == from_list
            assert from_columns.rectangles_swept == count
            # The facade, with and without a clipping pass that keeps everything.
            assert sweep_bursty_point(rects, alpha, 30.0, 45.0, backend=backend) == from_list
            assert sweep_bursty_point(
                RectColumns(rects), alpha, 30.0, 45.0, backend=backend
            ) == from_list
            assert sweep_bursty_point(
                rects, alpha, 30.0, 45.0, bounds=Rect(-1.0, -1.0, 9.0, 9.0), backend=backend
            ) == from_list

    def test_auto_selects_by_column_length(self):
        auto = AdaptiveSweepBackend(numpy_threshold=8)
        rects = random_rects(random.Random(5), 12)
        small, large = RectColumns(rects[:7]), RectColumns(rects[:8])
        assert auto.select(len(small)).name == "python"
        if "numpy" in available_backends():
            assert auto.select(len(large)).name == "numpy"
        for columns in (small, large):
            assert auto.sweep(columns, 0.5, 10.0, 10.0) == auto.select(
                len(columns)
            ).sweep(list(columns), 0.5, 10.0, 10.0)

    def test_a_sweep_leaves_the_columns_growable(self):
        """The numpy kernel's buffer views must not outlive the call."""
        columns = RectColumns(random_rects(random.Random(6), 40))
        for backend in available_backends():
            get_backend(backend).sweep(columns, 0.5, 10.0, 10.0)
            for column in (columns.min_x, columns.min_y, columns.max_x,
                           columns.max_y, columns.weight, columns.in_current):
                column.append(1)
                del column[0]
        assert len(columns) == 40
