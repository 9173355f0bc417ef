"""Measurement helpers: percentiles, spans and self time, the timing sweep
backend, and CPU / resident-set readers.

Spans are recorded by the benchmark, around calls into the program's public
functions; nothing under ``src/`` is instrumented.  A span is the tuple
``(name, start, end, parent, chunk_id)`` with ``perf_counter`` times,
``parent`` the index of the enclosing span in the same log (``-1`` for a
root) and ``chunk_id`` the measured chunk the work belongs to.
"""

from __future__ import annotations

import math
import os
import statistics
from time import perf_counter
from typing import Iterable, Sequence

Span = tuple  # (name, start, end, parent, chunk_id)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it (an observed value, never an
    interpolation).  Raises on an empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class SpanLog:
    """In-memory span list; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, parent: int = -1, chunk: int = -1) -> int:
        """Start a span now; returns its index (a parent for later spans)."""
        self.spans.append([name, perf_counter(), 0.0, parent, chunk])
        return len(self.spans) - 1

    def close(self, index: int) -> float:
        """End span ``index`` now; returns the end time."""
        ended = perf_counter()
        self.spans[index][2] = ended
        return ended

    def add(
        self, name: str, start: float, end: float, parent: int = -1, chunk: int = -1
    ) -> int:
        self.spans.append([name, start, end, parent, chunk])
        return len(self.spans) - 1

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span[2] - span[1] for span in self.spans if span[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent and overlapping children are merged,
    so time is never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per span name (a layer's self time)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


class TimingSweepBackend:
    """A :class:`~repro.core.sweep_backends.SweepBackend` that times every
    sweep and forwards it to the shipped default (``get_backend("auto")``).

    Passed as ``backend=`` on traced runs only; the untraced run passes no
    backend at all.  ``parent`` / ``chunk`` are set by the replay loop so a
    sweep span hangs under the detector span that caused it.
    """

    name = "bench-timing"

    def __init__(self, inner, log: SpanLog) -> None:
        self._inner = inner
        self._log = log
        self.parent = -1
        self.chunk = -1
        #: ``(rectangles, kernel name)`` per call, in call order.
        self.calls: list[tuple[int, str]] = []

    def select(self, n_rects: int):
        select = getattr(self._inner, "select", None)
        return select(n_rects) if select is not None else self._inner

    def sweep(self, rects, alpha, current_length, past_length):
        kernel = self.select(len(rects))
        started = perf_counter()
        result = kernel.sweep(rects, alpha, current_length, past_length)
        ended = perf_counter()
        self._log.add("core.sweep_backends", started, ended, self.parent, self.chunk)
        self.calls.append((len(rects), kernel.name))
        return result


# ----------------------------------------------------------------------
# CPU seconds and peak resident set of a process
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def pid_cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` so far, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may contain spaces; fields resume after ")".
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def pid_rss_mb(pid: int, *, peak: bool) -> float:
    """Resident set of ``pid`` in MiB: its peak (``VmHWM``) or current size."""
    field = "VmHWM:" if peak else "VmRSS:"
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no {field} line")


def median_and_quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (the driver's definition of spread)."""
    data = list(values)
    if len(data) < 2:
        only = data[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q2, q1, q3
