"""Pure-Python SL-CSPOT kernel with incremental slab evaluation.

The seed implementation rescanned *every* slab at *every* y event, making the
sweep ``O(|ys| · |slabs|)`` even when most slabs were untouched between two
events.  This backend keeps the same slab/accumulator structure but evaluates
a slab only when its ``(fc, fp)`` pair actually changed:

* the first evaluation scans all slabs once (so empty, zero-score slabs are
  representable in the result, exactly as in the seed kernel);
* afterwards, each y event only evaluates the union of the slab ranges of the
  rectangles added or removed at that event — an unchanged slab's score was
  already considered at an earlier, equally valid sweep position;
* and an event that can only *lower* scores (an add group of past-window
  rectangles only, a remove group of current-window rectangles only) is
  applied but not evaluated: every slab it touches was already evaluated, at
  a valid position, with a score at least as high, and the incumbent is only
  replaced by a strictly greater score — so the result, reported point
  included, is unchanged.

Because burst scores are non-negative and every score change of a slab is
caused by a rectangle event whose span covers the slab, the maximum over the
evaluated ``(slab, y)`` pairs equals the maximum over all of them, so the
kernel stays exact while the per-event cost drops from ``O(|slabs|)`` to
``O(Σ span of touched rectangles)``.

The arithmetic (per-slab accumulation order, score formula) is identical to
the seed kernel, so reported best scores are bit-for-bit reproducible.
"""

from __future__ import annotations

from repro.core.sweep_backends.types import RectSnapshot, SweepResult, as_columns
from repro.geometry.primitives import Point


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent inclusive index ranges."""
    if len(ranges) <= 1:
        return ranges
    ranges.sort()
    merged = [ranges[0]]
    for lo, hi in ranges[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


class PythonSweepBackend:
    """Optimized pure-Python backend (no third-party dependencies)."""

    name = "python"

    def sweep(
        self,
        rects: RectSnapshot,
        alpha: float,
        current_length: float,
        past_length: float,
    ) -> SweepResult:
        columns = as_columns(rects)
        min_x, max_x = columns.min_x, columns.max_x
        min_y, max_y = columns.min_y, columns.max_y
        weight, in_current = columns.weight, columns.in_current

        # X slabs: degenerate slabs at every distinct vertical-edge coordinate
        # plus open slabs between consecutive coordinates.
        xs = sorted(set(min_x).union(max_x))
        # slab j (0-based): even j -> degenerate slab at xs[j // 2];
        #                   odd  j -> open slab (xs[j // 2], xs[j // 2 + 1]).
        slab_count = 2 * len(xs) - 1
        slab_repr_x = [0.0] * slab_count
        for index, x in enumerate(xs):
            slab_repr_x[2 * index] = x
            if index + 1 < len(xs):
                slab_repr_x[2 * index + 1] = (x + xs[index + 1]) / 2.0
        x_position = {x: index for index, x in enumerate(xs)}

        slab_ranges = [
            (2 * x_position[lo], 2 * x_position[hi]) for lo, hi in zip(min_x, max_x)
        ]

        ys_desc = sorted(set(min_y).union(max_y), reverse=True)
        tops: dict[float, list[int]] = {}
        bottoms: dict[float, list[int]] = {}
        for index, (bottom, top) in enumerate(zip(min_y, max_y)):
            tops.setdefault(top, []).append(index)
            bottoms.setdefault(bottom, []).append(index)

        fc = [0.0] * slab_count
        fp = [0.0] * slab_count

        best_score = float("-inf")
        best_point: Point | None = None
        best_fc = 0.0
        best_fp = 0.0
        one_minus_alpha = 1.0 - alpha
        first_eval_done = False

        def evaluate_range(lo: int, hi: int, y_repr: float) -> None:
            nonlocal best_score, best_point, best_fc, best_fp
            for j in range(lo, hi + 1):
                slab_fc = fc[j]
                increase = slab_fc - fp[j]
                if increase < 0.0:
                    increase = 0.0
                score = alpha * increase + one_minus_alpha * slab_fc
                if score > best_score:
                    best_score = score
                    best_point = Point(slab_repr_x[j], y_repr)
                    best_fc = slab_fc
                    best_fp = fp[j]

        def apply(indices: list[int], sign: float) -> list[tuple[int, int]]:
            touched = []
            for index in indices:
                lo, hi = slab_ranges[index]
                touched.append((lo, hi))
                if in_current[index]:
                    delta = sign * weight[index] / current_length
                    for j in range(lo, hi + 1):
                        fc[j] += delta
                else:
                    delta = sign * weight[index] / past_length
                    for j in range(lo, hi + 1):
                        fp[j] += delta
            return touched

        for position, y in enumerate(ys_desc):
            added = tops.get(y)
            if added:
                touched = apply(added, +1.0)
                # Degenerate slab exactly at this y coordinate.  The first
                # evaluation scans everything so zero-score slabs can win when
                # no current-window rectangle is alive.
                if not first_eval_done:
                    evaluate_range(0, slab_count - 1, y)
                    first_eval_done = True
                elif any(in_current[index] for index in added):
                    # (Adding only past rectangles lowers scores: every
                    # touched slab was already evaluated at least as high.)
                    for lo, hi in _merge_ranges(touched):
                        evaluate_range(lo, hi, y)
            removed = bottoms.get(y)
            if removed and position + 1 < len(ys_desc):
                touched = apply(removed, -1.0)
                # Open slab strictly below this y coordinate: removing a past
                # rectangle can raise the score, so removals re-evaluate too —
                # unless only current rectangles left, which lowers scores.
                if not all(in_current[index] for index in removed):
                    mid = (y + ys_desc[position + 1]) / 2.0
                    for lo, hi in _merge_ranges(touched):
                        evaluate_range(lo, hi, mid)
            # Bottom edges at the lowest y are not even applied: nothing lies
            # below, and the seed kernel never evaluated past the last event.

        assert best_point is not None  # the topmost y always has a top edge
        return SweepResult(
            point=best_point,
            score=best_score,
            fc=best_fc,
            fp=best_fp,
            rectangles_swept=len(columns),
        )
