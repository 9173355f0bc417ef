"""Vectorized SL-CSPOT kernel: an event-blocked sweep over NumPy slab arrays.

The input is a :class:`~repro.core.sweep_backends.types.RectColumns`, read in
place through ``np.frombuffer`` (a cell's search costs no per-rectangle
set-up; a rectangle sequence is converted to columns once, on entry).

Two facts remove the per-rectangle Python loop of a scalar sweep.

**The burst score is a maximum of two linear forms.**  For every slab,

    ``α·max(fc − fp, 0) + (1 − α)·fc  =  max(fc − α·fp, (1 − α)·fc)``

so the kernel keeps the two forms ``g[0] = fc − α·fp`` and
``g[1] = (1 − α)·fc`` as slab arrays instead of ``fc`` and ``fp``.  A
rectangle entering or leaving the sweep line is a *constant* added to a slab
range of each form, and the maximum of a form over any slab range a
range-add covers entirely (or not at all) is ``range maximum + offset``.

**So events are processed a block at a time.**  The sweep's events — sorted
top-down by *step*, a step being the add group or the remove group of one y
row — are cut into blocks of :data:`BLOCK_EVENTS`.  The slab endpoints of a
block's events cut the slab axis into at most ``2·K + 1`` segments that no
event of the block splits; one ``np.maximum.reduceat`` gives every segment's
maximum before the block, a ``K × segments`` coverage mask times the block's
deltas, summed along the events, gives every intermediate offset, and one
``argmax`` over ``base + offset`` finds the block's best (event, segment).
The block is then applied to ``g`` with one ``bincount`` difference array
and a ``cumsum``.  That is ~15 array calls per block instead of ~10 per
event.

**Only step ends are evaluated.**  The state after an event in the middle of
a step (some, not all, of the rectangles sharing a top or bottom edge
applied) is not the state of any point of the plane, so only the row of the
last event of each step is scored.  The remove group of the lowest y row is
dropped altogether: nothing lies below it.

The blocked sums differ from a sequential accumulation in the last ulps, so
the reported ``fc`` / ``fp`` / ``score`` are recomputed at the end by a
direct sum over the rectangles covering the reported point: a
:class:`SweepResult` is self-consistent and a pure function of the input
(the parity suite pins all kernels together at ``1e-9`` relative tolerance).
"""

from __future__ import annotations

from repro.core.burst import burst_score
from repro.core.sweep_backends.types import RectSnapshot, SweepResult, as_columns
from repro.geometry.primitives import Point

import numpy as np

#: Events per block.  Work per event is ``O(slabs / K + K)`` array elements
#: plus ``1 / K`` of the per-block call overhead; measured on captured cell
#: snapshots, 48…96 are within 5% of each other.  Not a tuning knob.
BLOCK_EVENTS = 64


class NumpySweepBackend:
    """Array-backed backend (requires the optional ``numpy`` dependency)."""

    name = "numpy"

    def sweep(
        self,
        rects: RectSnapshot,
        alpha: float,
        current_length: float,
        past_length: float,
    ) -> SweepResult:
        # Views, not copies: the columns must not be resized while they live
        # (they are this call's locals; nothing below mutates its input).
        columns = as_columns(rects)
        n = len(columns)
        min_x = np.frombuffer(columns.min_x)
        min_y = np.frombuffer(columns.min_y)
        max_x = np.frombuffer(columns.max_x)
        max_y = np.frombuffer(columns.max_y)
        weight = np.frombuffer(columns.weight)
        in_current = np.frombuffer(columns.in_current, dtype=np.int8) != 0
        delta = np.where(in_current, weight / current_length, weight / past_length)

        # X slabs: degenerate slabs at the distinct vertical-edge coordinates,
        # open slabs in between (slab 2i sits at xs[i], slab 2i+1 strictly
        # between xs[i] and xs[i+1]); a rectangle covers slabs lo .. hi.
        xs, x_rank = np.unique(np.concatenate((min_x, max_x)), return_inverse=True)
        slab_count = 2 * xs.size - 1
        lo = 2 * x_rank[:n]
        end = 2 * x_rank[n:] + 1  # hi + 1

        # Events top-down: step 2r is the add group (top edges) of the r-th
        # highest y row, step 2r + 1 its remove group (bottom edges).  The
        # stable sort keeps input order inside a step.
        ys, y_rank = np.unique(np.concatenate((min_y, max_y)), return_inverse=True)
        rows_down = ys.size - 1 - y_rank
        step = np.concatenate((2 * rows_down[n:], 2 * rows_down[:n] + 1))
        order = np.argsort(step, kind="stable")
        # Drop the lowest row's remove group: nothing lies below it.
        order = order[: np.searchsorted(step[order], 2 * ys.size - 1)]
        step = step[order]
        rect_of = order % n
        sign = np.where(order < n, 1.0, -1.0)
        # Deltas of the two linear forms: a current rectangle moves fc, a
        # past one only the −α·fp term of the first form.
        d = sign * delta[rect_of]
        cur = in_current[rect_of]
        deltas = np.stack(
            (np.where(cur, d, -alpha * d), np.where(cur, (1.0 - alpha) * d, 0.0))
        )
        ev_lo = lo[rect_of]
        ev_end = end[rect_of]
        # Only the last event of a step leaves a state some point has.
        step_end = np.append(step[1:] != step[:-1], True)
        # Difference-array form of every event, for both forms at once: row
        # f of the (2, slabs + 1) difference matrix is flattened at offset
        # f·(slabs + 1).
        width = slab_count + 1
        diff_at = np.stack((ev_lo, ev_end, ev_lo + width, ev_end + width), axis=1)
        diff_by = np.stack((deltas[0], -deltas[0], deltas[1], -deltas[1]), axis=1)

        g = np.zeros((2, slab_count))
        is_edge = np.zeros(width, dtype=np.bool_)
        best = -np.inf
        best_event = best_slab = 0
        for a in range(0, step.size, BLOCK_EVENTS):
            b = a + BLOCK_EVENTS
            rows = np.flatnonzero(step_end[a:b])
            if rows.size:
                block_lo = ev_lo[a:b]
                block_end = ev_end[a:b]
                # Segment s is slabs edges[s] .. edges[s + 1] - 1: the slab
                # axis cut at every endpoint of the block's events.
                is_edge[:] = False
                is_edge[block_lo] = is_edge[block_end] = True
                is_edge[0] = is_edge[slab_count] = True
                edges = np.flatnonzero(is_edge)
                cuts = edges[:-1]
                covered = (block_lo[:, None] <= cuts) & (cuts < block_end[:, None])
                offsets = (covered * deltas[:, a:b, None]).cumsum(axis=1)[:, rows]
                values = offsets + np.maximum.reduceat(g, cuts, axis=1)[:, None]
                flat = int(values.argmax())
                top = float(values.flat[flat])
                if top > best:
                    # Resolve the slab inside the winning segment from the
                    # pre-block arrays plus that row's offsets.
                    _, row, segment = np.unravel_index(flat, values.shape)
                    first, stop = int(edges[segment]), int(edges[segment + 1])
                    inside = g[:, first:stop] + offsets[:, row, segment, None]
                    best = top
                    best_event = a + int(rows[row])
                    best_slab = first + int(inside.max(axis=0).argmax())
            g += np.bincount(
                diff_at[a:b].ravel(), diff_by[a:b].ravel(), 2 * width
            ).reshape(2, width).cumsum(axis=1)[:, :slab_count]

        # The reported point: slab representative × the step's y (the row
        # itself after an add group, the open strip below it after a remove
        # group), then its window scores by direct summation.
        x = float(xs[best_slab // 2])
        if best_slab % 2:
            x = (x + float(xs[best_slab // 2 + 1])) / 2.0
        row_up = ys.size - 1 - int(step[best_event]) // 2
        y = float(ys[row_up])
        if step[best_event] % 2:
            y = (y + float(ys[row_up - 1])) / 2.0
        covering = (min_x <= x) & (x <= max_x) & (min_y <= y) & (y <= max_y)
        fc = float(delta[covering & in_current].sum())
        fp = float(delta[covering & ~in_current].sum())
        return SweepResult(
            point=Point(x, y),
            score=burst_score(fc, fp, alpha),
            fc=fc,
            fp=fp,
            rectangles_swept=n,
        )
