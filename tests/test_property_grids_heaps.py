"""Property-based tests for the grid addressing and the lazy max-heap."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.grids import GridSpec
from repro.geometry.heaps import LazyMaxHeap
from repro.geometry.primitives import Rect

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
cell_sizes = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)


class TestGridProperties:
    @given(x=coords, y=coords, cw=cell_sizes, ch=cell_sizes, ox=coords, oy=coords)
    @settings(max_examples=100)
    def test_point_lies_in_its_cell(self, x, y, cw, ch, ox, oy):
        grid = GridSpec(cell_width=cw, cell_height=ch, origin_x=ox, origin_y=oy)
        index = grid.cell_of(x, y)
        cell = grid.cell_rect(index)
        # Floating-point division can land a boundary point one cell over;
        # allow a tolerance of one part in a million of the cell size.
        assert cell.min_x - 1e-6 * cw <= x <= cell.max_x + 1e-6 * cw
        assert cell.min_y - 1e-6 * ch <= y <= cell.max_y + 1e-6 * ch

    @given(x=coords, y=coords, cw=cell_sizes, ch=cell_sizes)
    @example(x=0.0, y=13.0, cw=1.0, ch=0.1)
    @settings(max_examples=100)
    def test_query_sized_rectangle_overlaps_at_most_nine_cells(self, x, y, cw, ch):
        """Lemma 1: at most 4 cells in general position, up to 9 when aligned.

        ``cells_overlapping`` promises the cells *possibly* affected: every
        cell a corner is addressed to, and nothing farther than the float
        addressing can reach.  At ``y = 13, ch = 0.1`` the top edge 13.1 is
        addressed to row 131, whose ``cell_rect`` starts at
        13.100000000000001 (``floor(v / h)`` against ``i · h``), so a
        yielded cell may miss the rectangle by an ulp, never by more.
        """
        grid = GridSpec(cell_width=cw, cell_height=ch)
        rect = Rect(x, y, x + cw, y + ch)
        cells = list(grid.cells_overlapping(rect))
        assert 1 <= len(cells) <= 9
        corners = {
            grid.cell_of(px, py)
            for px in (rect.min_x, rect.max_x)
            for py in (rect.min_y, rect.max_y)
        }
        assert corners <= set(cells)
        for index in cells:
            cell = grid.cell_rect(index)
            assert cell.min_x - 1e-6 * cw <= rect.max_x
            assert rect.min_x <= cell.max_x + 1e-6 * cw
            assert cell.min_y - 1e-6 * ch <= rect.max_y
            assert rect.min_y <= cell.max_y + 1e-6 * ch

    @given(x=coords, y=coords, cw=cell_sizes, ch=cell_sizes)
    @settings(max_examples=60)
    def test_shifted_grid_covers_the_same_point(self, x, y, cw, ch):
        grid = GridSpec(cell_width=cw, cell_height=ch)
        for shifted in grid.mgap_family():
            index = shifted.cell_of(x, y)
            cell = shifted.cell_rect(index)
            assert cell.min_x - 1e-6 * cw <= x <= cell.max_x + 1e-6 * cw


class TestHeapProperties:
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["push", "remove"]),
                st.integers(min_value=0, max_value=20),
                st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60)
    def test_heap_matches_reference_dictionary(self, operations):
        heap = LazyMaxHeap()
        reference: dict[int, float] = {}
        for op, key, priority in operations:
            if op == "push":
                heap.push(key, priority)
                reference[key] = priority
            else:
                heap.remove(key)
                reference.pop(key, None)
            assert len(heap) == len(reference)
            top = heap.peek()
            if reference:
                assert top is not None
                assert top[1] == max(reference.values())
            else:
                assert top is None

    @given(
        entries=st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            max_size=30,
        ),
        n=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60)
    def test_top_n_matches_sorted_reference(self, entries, n):
        heap = LazyMaxHeap()
        for key, priority in entries.items():
            heap.push(key, priority)
        expected = sorted(entries.values(), reverse=True)[:n]
        got = [priority for _, priority in heap.top_n(n)]
        assert got == expected
