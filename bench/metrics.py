"""The benchmark's metric tables, read from ``BENCHMARK.json``.

The contract file at the repository root is the one place that names the
workloads (and why each exists), the end-to-end metrics with their unit,
direction and bound, and the per-layer metrics; this module only loads it.
What each metric means, where it is measured and what it should move is in
``bench/README.md``.

End-to-end metrics come from the untraced run only and never read a counter
inside the program.  Per-layer metrics come from the traced run and carry no
bound.  Per-layer times have the unit ``s/kobj`` — seconds per 1000 measured
objects: the timed section is a fixed number of seconds, so a faster layer
lets more objects through and an absolute busy time would hide the gain it
is meant to show.
"""

from __future__ import annotations

import json
from pathlib import Path

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: How long one run measures, seconds.
RUN_SECONDS: int = CONTRACT["run_seconds"]
#: ``{workload name: one line on why it exists}``
WHY = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
#: ``{name: {"unit", "better", "bound"}}`` — bound = share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
#: ``{name: {"unit", "better"}}``
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: Value of a per-layer probe that could not be read (see ``missing``); a
#: layer the workload does not exercise reads 0.
MISSING = -1.0
#: Units of per-layer metrics that must repeat exactly for a fixed seed.
EXACT_UNITS = ("count", "bytes", "bool", "hash48")


def _entry(name: str) -> dict:
    return END_TO_END.get(name) or PER_LAYER[name]


def unit_of(name: str) -> str:
    return _entry(name)["unit"]


def lower_is_better(name: str) -> bool:
    return _entry(name)["better"] == "lower"


def bound_of(name: str) -> float | None:
    return END_TO_END.get(name, {}).get("bound")
