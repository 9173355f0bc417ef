"""SL-CSPOT: the sweep-line bursty-point search on a snapshot (Algorithm 1).

Given a set of rectangle objects labelled with the window they belong to,
SL-CSPOT finds a point of the plane with the maximum burst score.  The
vertical edges of the rectangles split the x axis into *slabs*; a horizontal
sweep visits the y coordinates of the horizontal edges top-down and maintains
per-slab ``(fc, fp)`` accumulators, so every face of the rectangle
arrangement is evaluated exactly once.

Backend architecture
--------------------
This module is a thin facade: it normalises the input (clipping to optional
``bounds``, rejecting empty snapshots) and delegates the actual sweep to a
pluggable kernel from :mod:`repro.core.sweep_backends`:

* ``python`` — the optimized pure-Python kernel.  Instead of rescanning all
  slabs at every y event (the original ``O(|ys| · |slabs|)`` behaviour) it
  re-evaluates only the slabs whose accumulators changed, which is exact
  because every score change is caused by a rectangle event covering the
  slab.
* ``numpy`` — a vectorized, event-blocked kernel.  It uses the identity
  ``α·max(fc − fp, 0) + (1 − α)·fc = max(fc − α·fp, (1 − α)·fc)``: the burst
  score is the maximum of two forms that are linear in ``(fc, fp)``, so a
  rectangle event is a constant added to a slab range of two ``float64``
  arrays and 64 events at a time can be scored from per-segment maxima plus
  a table of offsets.  Only the state after a whole *step* (all rectangles
  sharing one top edge row, or one bottom edge row) is scored, because the
  states in between belong to no point of the plane.
  Requires the optional ``numpy`` dependency (``pip install .[fast]``).
* ``auto`` (default) — adaptive dispatch between the two based on snapshot
  size, overridable through the ``REPRO_SWEEP_BACKEND`` environment variable
  or the ``backend`` argument threaded through every detector, the
  :func:`repro.core.monitor.make_detector` factory and the CLI's
  ``--backend`` flag.

All backends are exact and agree on best scores (the NumPy kernel up to
summation-order rounding, pinned at ``1e-9`` by the parity test suite);
reported points may legitimately differ between backends when several points
attain the optimum.

Exactness with closed rectangles
--------------------------------
The burst score is **not** monotone in the set of covering rectangles (a past
window rectangle lowers the score), so — unlike the classic max-enclosing
rectangle sweep — the optimum may lie either strictly inside an arrangement
face or exactly on an edge shared by two rectangles.  To stay exact the sweep
therefore evaluates *degenerate* slabs located exactly at the edge
coordinates in addition to the open slabs between them, in both the x and the
y direction.  This keeps the worst case at ``O(n²)`` while returning the
true optimum for closed rectangles.

The same routine powers the stand-alone snapshot search, the per-cell
searches of Cell-CSPOT and kCCS (whose cells keep their rectangles already
clipped and as the columns the kernels read, so neither a ``bounds`` pass nor
a conversion is needed) and the ``bounds``-clipped neighbourhood searches of
the adapted aG2 baseline.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.sweep_backends import SweepBackend, resolve_backend
from repro.core.sweep_backends.types import (
    LabeledRect,
    RectSnapshot,
    SweepResult,
    as_columns,
    clip_rects,
)
from repro.geometry.primitives import Rect
from repro.obs.tracer import current as _current_tracer

__all__ = ["LabeledRect", "SweepResult", "sweep_bursty_point"]


def sweep_bursty_point(
    rects: RectSnapshot,
    alpha: float,
    current_length: float,
    past_length: float,
    bounds: Rect | None = None,
    backend: str | SweepBackend | None = None,
) -> SweepResult | None:
    """Find a point with the maximum burst score over a rectangle snapshot.

    Parameters
    ----------
    rects:
        The rectangle objects alive in either sliding window: a
        :class:`~repro.core.sweep_backends.types.RectColumns` (what a cell
        keeps) or any iterable of :class:`LabeledRect`-shaped records, which
        is converted to columns once, here.
    alpha:
        Burst-score balance parameter.
    current_length, past_length:
        ``|Wc|`` and ``|Wp|`` used to normalise weights.
    bounds:
        Optional clipping rectangle; when given, only points inside it are
        considered (this is how aG2 restricts a search to part of a cell).
    backend:
        Sweep kernel to use: a :class:`~repro.core.sweep_backends.SweepBackend`
        instance, a backend name (``"auto"``, ``"python"``, ``"numpy"``), or
        ``None`` for the environment-driven default.

    Returns
    -------
    SweepResult or None
        The best point with its score and window scores, or ``None`` if no
        rectangle intersects ``bounds``.
    """
    columns = as_columns(rects) if bounds is None else clip_rects(rects, bounds)
    if not columns:
        return None
    engine = resolve_backend(backend)
    tracer = _current_tracer()
    if tracer is None or not tracer.enabled:
        return engine.sweep(columns, alpha, current_length, past_length)
    # Name the kernel that actually runs: the adaptive facade exposes its
    # per-snapshot dispatch decision so the span says python/numpy, not auto.
    select = getattr(engine, "select", None)
    kernel = select(len(columns)).name if select is not None else engine.name
    started = perf_counter()
    result = engine.sweep(columns, alpha, current_length, past_length)
    tracer.record(
        f"sweep.{kernel}", started, perf_counter(),
        meta={"rects": len(columns)},
    )
    return result
