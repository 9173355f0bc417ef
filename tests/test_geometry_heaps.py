"""Unit tests for the lazy addressable max-heap."""

import pytest

from repro.geometry.heaps import LazyMaxHeap


class TestBasicOperations:
    def test_empty_heap(self):
        heap = LazyMaxHeap()
        assert heap.peek() is None
        assert len(heap) == 0
        with pytest.raises(IndexError):
            heap.pop()

    def test_push_and_peek(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        heap.push("b", 3.0)
        heap.push("c", 2.0)
        assert heap.peek() == ("b", 3.0)
        assert len(heap) == 3

    def test_pop_returns_descending_order(self):
        heap = LazyMaxHeap()
        for key, priority in [("a", 1.0), ("b", 5.0), ("c", 3.0), ("d", 4.0)]:
            heap.push(key, priority)
        popped = [heap.pop() for _ in range(4)]
        assert popped == [("b", 5.0), ("d", 4.0), ("c", 3.0), ("a", 1.0)]
        assert len(heap) == 0

    def test_update_priority_overrides_previous(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        heap.push("a", 10.0)
        assert heap.peek() == ("a", 10.0)
        assert len(heap) == 2

    def test_decrease_priority(self):
        heap = LazyMaxHeap()
        heap.push("a", 10.0)
        heap.push("b", 5.0)
        heap.push("a", 1.0)
        assert heap.peek() == ("b", 5.0)

    def test_remove(self):
        heap = LazyMaxHeap()
        heap.push("a", 10.0)
        heap.push("b", 5.0)
        heap.remove("a")
        assert heap.peek() == ("b", 5.0)
        assert "a" not in heap
        heap.remove("missing")  # no-op

    def test_contains_and_priority_of(self):
        heap = LazyMaxHeap()
        heap.push("x", 7.0)
        assert "x" in heap
        assert heap.priority_of("x") == 7.0
        assert heap.priority_of("y") is None
        assert heap.priority_of("y", default=0.0) == 0.0

    def test_clear(self):
        heap = LazyMaxHeap()
        heap.push("x", 1.0)
        heap.clear()
        assert len(heap) == 0
        assert heap.peek() is None

    def test_iteration_yields_live_entries(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        heap.push("a", 3.0)
        assert dict(iter(heap)) == {"a": 3.0, "b": 2.0}


class TestTopN:
    def test_top_n_sorted_descending(self):
        heap = LazyMaxHeap()
        for index in range(10):
            heap.push(index, float(index))
        assert heap.top_n(3) == [(9, 9.0), (8, 8.0), (7, 7.0)]

    def test_top_n_larger_than_heap(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        assert heap.top_n(5) == [("a", 1.0)]

    def test_top_n_zero_or_negative(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        assert heap.top_n(0) == []
        assert heap.top_n(-2) == []

    def test_top_n_reflects_updates(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        heap.push("a", 5.0)
        assert heap.top_n(2) == [("a", 5.0), ("b", 2.0)]

    def test_top_n_ties_come_out_in_key_insertion_order(self):
        # Pins the tie order of the stable reversed sort: equal priorities in
        # the order their keys were first inserted; an update keeps a key's
        # place, a remove + re-push sends it to the back.
        heap = LazyMaxHeap()
        for key in "abcde":
            heap.push(key, 1.0)
        heap.push("f", 2.0)
        heap.push("b", 1.0)
        assert heap.top_n(4) == [("f", 2.0), ("a", 1.0), ("b", 1.0), ("c", 1.0)]
        heap.remove("a")
        heap.push_all([("a", 1.0)])
        assert heap.top_n(6) == [
            ("f", 2.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("e", 1.0), ("a", 1.0)
        ]
        assert heap.top_n(6) == sorted(heap, key=lambda item: -item[1])


class TestStressAndCompaction:
    def test_many_updates_remain_consistent(self):
        heap = LazyMaxHeap()
        reference = {}
        import random

        rng = random.Random(1)
        for step in range(3000):
            key = rng.randrange(40)
            if rng.random() < 0.15 and key in reference:
                heap.remove(key)
                del reference[key]
            else:
                priority = rng.random() * 100
                heap.push(key, priority)
                reference[key] = priority
            if reference:
                best_key, best_priority = max(reference.items(), key=lambda kv: kv[1])
                top = heap.peek()
                assert top is not None
                assert top[1] == pytest.approx(best_priority)
            else:
                assert heap.peek() is None
        assert len(heap) == len(reference)

    def test_pop_skips_stale_entries(self):
        heap = LazyMaxHeap()
        heap.push("a", 5.0)
        heap.push("a", 1.0)
        heap.push("b", 3.0)
        assert heap.pop() == ("b", 3.0)
        assert heap.pop() == ("a", 1.0)
        with pytest.raises(IndexError):
            heap.pop()


class TestRemoveCompaction:
    def test_remove_heavy_churn_keeps_heap_bounded(self):
        # Regression test: remove() used to delete only from the priority map
        # and never trigger compaction, so a push/remove churn grew the
        # internal heap list without bound.
        heap = LazyMaxHeap()
        live = 16
        for key in range(live):
            heap.push(("live", key), float(key))
        for step in range(5000):
            heap.push(("churn", step), 1.0)
            heap.remove(("churn", step))
            # At most: the compaction threshold plus the entries pushed since
            # the last compaction could halve the list.
            assert len(heap._heap) <= max(64, 2 * len(heap._priorities)) + 1
        assert len(heap) == live

    def test_remove_alone_compacts_stale_entries(self):
        heap = LazyMaxHeap()
        for key in range(200):
            heap.push(key, float(key))
        for key in range(199):
            heap.remove(key)
        assert len(heap) == 1
        assert len(heap._heap) <= 64
        assert heap.peek() == (199, 199.0)

    def test_remove_missing_key_is_noop(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        heap.remove("missing")
        assert len(heap) == 1
        assert heap.peek() == ("a", 1.0)


class TestPushAll:
    def test_push_all_matches_individual_pushes(self):
        import random

        rng = random.Random(3)
        reference = LazyMaxHeap()
        bulk = LazyMaxHeap()
        for round_number in range(20):
            items = [
                (rng.randrange(50), rng.uniform(0.0, 100.0))
                for _ in range(rng.randrange(0, 30))
            ]
            for key, priority in items:
                reference.push(key, priority)
            bulk.push_all(items)
            if rng.random() < 0.5 and len(reference):
                key = rng.randrange(50)
                reference.remove(key)
                bulk.remove(key)
            assert len(reference) == len(bulk)
            assert reference.peek() == bulk.peek()
            assert sorted(reference) == sorted(bulk)

    def test_push_all_empty_iterable_is_noop(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        heap.push_all([])
        heap.push_all(iter(()))
        assert len(heap) == 1
        assert heap.peek() == ("a", 1.0)

    def test_push_all_large_batch_heapifies_and_stays_consistent(self):
        heap = LazyMaxHeap()
        heap.push_all((key, float(key % 97)) for key in range(1000))
        assert len(heap) == 1000
        drained = []
        while len(heap):
            drained.append(heap.pop()[1])
        assert drained == sorted(drained, reverse=True)

    def test_push_all_updates_existing_keys(self):
        heap = LazyMaxHeap()
        heap.push("a", 1.0)
        heap.push("b", 5.0)
        heap.push_all([("a", 10.0), ("b", 0.5)])
        assert heap.peek() == ("a", 10.0)
        assert heap.priority_of("b") == 0.5

    def test_push_all_triggers_single_compaction(self):
        heap = LazyMaxHeap()
        # Many updates of the same small key set: stale entries pile up and
        # the single trailing compaction check must still bound the heap.
        for _ in range(50):
            heap.push_all([(key, float(key)) for key in range(10)])
        assert len(heap) == 10
        assert len(heap._heap) <= max(64, 2 * len(heap._priorities)) + 20

    def test_push_all_and_remove_rounds_keep_stale_entries_bounded(self):
        # The batched gaps path: per chunk, one remove per emptied cell and
        # one push_all of the re-scored cells.
        import random

        rng = random.Random(4)
        heap = LazyMaxHeap()
        batch = 40
        for _ in range(400):
            keys = [rng.randrange(300) for _ in range(batch)]
            for key in keys[: batch // 4]:
                heap.remove(key)
            heap.push_all([(key, rng.random()) for key in keys[batch // 4 :]])
            assert len(heap._heap) <= max(64, 2 * len(heap)) + batch
        live = dict(heap)
        assert heap.peek() == max(live.items(), key=lambda item: item[1])
