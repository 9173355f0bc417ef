"""Observability: stage spans, flight recorder, histograms, exports.

See :mod:`repro.obs.tracer` for the recording model,
:mod:`repro.obs.export` for the Chrome ``trace_event`` dump,
:mod:`repro.obs.logjson` for the structured-logging opt-in, and
:mod:`repro.obs.counters` for the counters stats records declare.
"""

from repro.obs.export import (
    chrome_trace_events,
    format_stage_table,
    write_chrome_trace,
)
from repro.obs.logjson import JsonLogFormatter, enable_json_logging
from repro.obs.tracer import (
    DEFAULT_RING_SIZE,
    HISTOGRAM_BOUNDS,
    STAGES,
    FlightRecorder,
    StageAggregate,
    Tracer,
    activate,
    current,
    install,
)

__all__ = [
    "DEFAULT_RING_SIZE",
    "HISTOGRAM_BOUNDS",
    "STAGES",
    "FlightRecorder",
    "JsonLogFormatter",
    "StageAggregate",
    "Tracer",
    "activate",
    "chrome_trace_events",
    "current",
    "enable_json_logging",
    "format_stage_table",
    "install",
    "write_chrome_trace",
]
