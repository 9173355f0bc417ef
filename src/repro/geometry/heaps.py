"""An addressable max-heap with lazy invalidation.

Every SURGE detector needs the same bookkeeping primitive: a collection of
keys (grid cells) whose priority (upper bound or burst score) changes on
every stream event, together with an efficient way to read or pop the key
with the largest priority.  Re-heapifying on every update would defeat the
point of the lazy-update strategy, so the heap keeps stale entries around and
skips them when they surface — the standard "lazy deletion" technique.

The structure supports:

* ``push(key, priority)`` — insert or update a key,
* ``push_all(pairs)`` — bulk insert/update with one compaction pass,
* ``remove(key)`` — delete a key,
* ``peek()`` / ``pop()`` — the key with the maximum priority,
* ``priority_of(key)`` and iteration over live ``(key, priority)`` pairs,
* ``top_n(n)`` — the ``n`` largest entries (used by the top-k detectors).

All operations other than ``top_n`` are ``O(log m)`` amortised where ``m`` is
the number of pushes since the last compaction; the heap compacts itself when
more than half of its entries are stale.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)


class LazyMaxHeap(Generic[K]):
    """Addressable max-heap keyed by arbitrary hashable keys."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, K]] = []
        self._priorities: dict[K, float] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, key: K, priority: float) -> None:
        """Insert ``key`` or update its priority."""
        self._priorities[key] = priority
        self._counter += 1
        heapq.heappush(self._heap, (-priority, self._counter, key))
        self._maybe_compact()

    def push_all(self, items: "Iterable[tuple[K, float]]") -> None:
        """Insert or update many ``(key, priority)`` pairs in one pass.

        Equivalent to calling :meth:`push` per pair but with a single
        compaction check at the end, and — when the batch is large relative
        to the heap — one O(m) ``heapify`` instead of m ``heappush`` sifts.
        The batched detectors use this to refresh every dirty cell's bound
        with one call per event batch.
        """
        added = list(items)
        if not added:
            return
        priorities = self._priorities
        heap = self._heap
        if len(added) * 8 >= len(heap) + len(added):
            # Large batch: append everything and re-heapify once.
            for key, priority in added:
                priorities[key] = priority
                self._counter += 1
                heap.append((-priority, self._counter, key))
            heapq.heapify(heap)
        else:
            for key, priority in added:
                priorities[key] = priority
                self._counter += 1
                heapq.heappush(heap, (-priority, self._counter, key))
        self._maybe_compact()

    def remove(self, key: K) -> None:
        """Remove ``key`` from the heap (no-op if absent).

        The underlying heap entry becomes stale rather than being deleted, so
        a remove-heavy workload must trigger the same compaction check as
        ``push`` — otherwise stale entries accumulate without bound.
        """
        if self._priorities.pop(key, None) is not None:
            self._maybe_compact()

    def pop(self) -> tuple[K, float]:
        """Remove and return the ``(key, priority)`` pair with maximum priority.

        Raises
        ------
        IndexError
            If the heap is empty.
        """
        while self._heap:
            neg_priority, _, key = heapq.heappop(self._heap)
            current = self._priorities.get(key)
            if current is not None and current == -neg_priority:
                del self._priorities[key]
                return key, current
        raise IndexError("pop from an empty LazyMaxHeap")

    def clear(self) -> None:
        """Remove every entry."""
        self._heap.clear()
        self._priorities.clear()
        self._counter = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def peek(self) -> tuple[K, float] | None:
        """The ``(key, priority)`` pair with maximum priority, or ``None`` if empty."""
        while self._heap:
            neg_priority, _, key = self._heap[0]
            current = self._priorities.get(key)
            if current is not None and current == -neg_priority:
                return key, current
            heapq.heappop(self._heap)
        return None

    def priority_of(self, key: K, default: float | None = None) -> float | None:
        """The current priority of ``key``, or ``default`` if absent."""
        return self._priorities.get(key, default)

    def top_n(self, n: int) -> list[tuple[K, float]]:
        """The ``n`` live entries with the largest priorities, sorted descending.

        This is an ``O(m log n)`` scan over the ``m`` live entries (the
        top-k detectors call it with small ``n`` on every read).  Entries of
        equal priority come out in insertion order of their keys:
        ``heapq.nlargest`` is documented as equivalent to the stable
        ``sorted(..., reverse=True)[:n]``.
        """
        if n <= 0:
            return []
        return heapq.nlargest(n, self._priorities.items(), key=itemgetter(1))

    def __contains__(self, key: K) -> bool:
        return key in self._priorities

    def __len__(self) -> int:
        return len(self._priorities)

    def __iter__(self) -> Iterator[tuple[K, float]]:
        """Iterate over live ``(key, priority)`` pairs in arbitrary order."""
        return iter(self._priorities.items())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        """Rebuild the underlying heap when most entries are stale."""
        if len(self._heap) > 64 and len(self._heap) > 2 * len(self._priorities):
            self._counter = 0
            rebuilt = []
            for key, priority in self._priorities.items():
                self._counter += 1
                rebuilt.append((-priority, self._counter, key))
            heapq.heapify(rebuilt)
            self._heap = rebuilt
