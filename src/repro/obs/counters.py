"""Counters declared once, on the stats record that keeps them.

A stats dataclass marks each exported field with :func:`counter` or
:func:`gauge`; the field's name, kind, help text and default are then the
only declaration of that metric.  :func:`declared` reads a record's values
for the stats frame and checkpoints, and :func:`declarations` hands the
Prometheus renderer (:mod:`repro.server.metrics`) each family's kind and
help.  Fields left unmarked (views over other records, live sets) are not
counters and are exported by nobody.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import cache
from typing import Any

_METRIC = "repro.metric"


def counter(help: str, default: Any = 0) -> Any:
    """A monotonic counter field (rendered as ``..._total``)."""
    return field(default=default, metadata={_METRIC: ("counter", help)})


def gauge(help: str, default: Any = 0) -> Any:
    """A gauge field: a current or peak level, free to go down."""
    return field(default=default, metadata={_METRIC: ("gauge", help)})


@cache
def declarations(record_type: type) -> tuple[tuple[str, str, str, Any], ...]:
    """``(name, kind, help, default)`` of every declared field, in field order."""
    return tuple(
        (spec.name, *spec.metadata[_METRIC], spec.default)
        for spec in fields(record_type)
        if _METRIC in spec.metadata
    )


def declared(record: Any) -> dict[str, Any]:
    """The declared fields' current values, in field order.

    Reads with ``getattr``: ``asdict`` deep-copies, and materialising a
    live instance's ``__dict__`` slows every later attribute update.
    """
    return {name: getattr(record, name) for name, *_ in declarations(type(record))}


__all__ = ["counter", "declarations", "declared", "gauge"]
