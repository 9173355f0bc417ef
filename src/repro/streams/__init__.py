"""Stream substrate: spatial objects, window events, and stream sources.

The paper's detectors consume a stream of *events* rather than raw objects:
whenever a spatial object arrives, the two consecutive sliding windows
(current ``Wc`` and past ``Wp``) advance, which produces

* one ``NEW`` event for the arriving object,
* a ``GROWN`` event for every object whose creation time falls out of the
  current window into the past window, and
* an ``EXPIRED`` event for every object that leaves the past window.

:class:`~repro.streams.windows.SlidingWindowPair` performs this conversion;
:mod:`repro.streams.sources` provides stream iterators, merging, and the
arrival-rate stretching used by the scalability experiment (Figure 8).
"""

from repro.streams.objects import (
    EventBatch,
    EventKind,
    RectangleObject,
    SpatialObject,
    WindowEvent,
)
from repro.streams.windows import OutOfOrderError, SlidingWindowPair, WindowState
from repro.streams.sources import (
    ListSource,
    merge_streams,
    stretch_to_rate,
    stretch_to_duration,
)
from repro.streams.watermark import (
    IngestStats,
    WatermarkReorderBuffer,
    classify_bad_record,
)
from repro.streams.ingest import IngestTier
from repro.streams.faults import FaultInjector, FaultProfile

__all__ = [
    "EventBatch",
    "EventKind",
    "RectangleObject",
    "SpatialObject",
    "WindowEvent",
    "OutOfOrderError",
    "SlidingWindowPair",
    "WindowState",
    "ListSource",
    "merge_streams",
    "stretch_to_rate",
    "stretch_to_duration",
    "IngestStats",
    "IngestTier",
    "WatermarkReorderBuffer",
    "classify_bad_record",
    "FaultInjector",
    "FaultProfile",
]
