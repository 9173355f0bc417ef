"""Self-check of the benchmark's own helpers (no subprocess, no timing).

Collected by the Tier-1 command before ``benchmarks/`` and ``tests/``; the
whole file runs in a few seconds and writes nothing outside ``tmp_path``.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from bench import inputs, metrics, verify
from bench.probes import (
    SpanLog,
    TimingSweepBackend,
    median_and_quartiles,
    percentile,
    self_time_by_name,
    self_times,
)
from bench.workloads import WORKLOADS, LayerReport
from repro import SurgeMonitor, SurgeQuery
from repro.core.sweep_backends import get_backend

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 0.95) == 5.0
    assert percentile(samples, 0.2) == 1.0
    assert percentile(list(range(1, 201)), 0.95) == 190  # ten samples beyond
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(samples, 0.0)


def test_quartiles_follow_statistics_quantiles():
    mid, q1, q3 = median_and_quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (mid, q1, q3) == (5.5, 2.75, 8.25)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        ("parent", 0.0, 10.0, -1, 0),
        ("child", 1.0, 3.0, 0, 0),
        ("child", 2.0, 5.0, 0, 0),  # overlaps the first: merged, not doubled
        ("child", 8.0, 12.0, 0, 0),  # sticks out: clipped to the parent
        ("grandchild", 1.5, 2.0, 1, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[4] == pytest.approx(0.5)
    assert self_time_by_name(spans)["child"] == pytest.approx(1.5 + 3.0 + 4.0)


def test_span_log_open_close_nest():
    log = SpanLog()
    root = log.open("chunk", -1, 3)
    child = log.open("layer", root, 3)
    log.close(child)
    log.close(root)
    assert log.spans[child][3] == root
    assert log.spans[root][1] <= log.spans[child][1] <= log.spans[child][2] <= log.spans[root][2]
    assert log.count("layer") == 1 and log.total("chunk") >= log.total("layer")


def test_layer_probe_degrades_instead_of_raising():
    report = LayerReport()
    report.put("present", lambda: 3)
    report.put("renamed.attribute", lambda: object().no_such_counter)
    report.put("missing.stage", lambda: {}["settle"])
    assert report.values == {"present": 3.0}
    assert report.missing == ["renamed.attribute", "missing.stage"]


def test_timing_backend_forwards_and_records():
    log = SpanLog()
    backend = TimingSweepBackend(get_backend("auto"), log)
    query = SurgeQuery(1.0, 1.0, window_length=50.0)
    plain = SurgeMonitor(query, "ccs")
    timed = SurgeMonitor(query, "ccs", backend=backend)
    objects = inputs.object_stream(5, 300, layout="uniform")
    for chunk in inputs.chunked(objects, 32):
        assert timed.push_many(chunk) == plain.push_many(chunk)
    assert backend.calls and len(backend.calls) == log.count("core.sweep_backends")
    assert {kernel for _, kernel in backend.calls} <= {"python", "numpy"}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_generators_are_deterministic():
    a = inputs.object_stream(7, 400, layout="hotspot", keywords=True)
    b = inputs.object_stream(7, 400, layout="hotspot", keywords=True)
    c = inputs.object_stream(8, 400, layout="hotspot", keywords=True)
    assert a == b and a != c
    assert inputs.input_sha256(a) == inputs.input_sha256(b) != inputs.input_sha256(c)
    assert all(0.0 <= o.x <= inputs.EXTENT and 0.0 <= o.y <= inputs.EXTENT for o in a)
    assert all(o.weight == int(o.weight) and 1 <= o.weight <= 100 for o in a)
    assert {o.attributes["keywords"][0] for o in a} <= set(inputs.VOCABULARY)
    assert [o.timestamp for o in a] == [float(i) for i in range(400)]


def test_displacement_is_bounded_and_reversible():
    ordered = inputs.object_stream(7, 2000, layout="uniform", keywords=True)
    arrivals = inputs.displace(ordered, 7)
    assert arrivals == inputs.displace(ordered, 7)
    assert arrivals != ordered
    assert sorted(arrivals, key=lambda o: (o.timestamp, o.object_id)) == ordered
    newest = float("-inf")
    for obj in arrivals:
        newest = max(newest, obj.timestamp)
        assert newest - obj.timestamp < 4.0  # never behind a 4 s watermark


def test_schedule_and_query_grids():
    assert inputs.paced_schedule(3, 64, 4000.0) == [0.0, 0.016, 0.032]
    fanout = inputs.fanout_specs()
    assert len(fanout) == len({s.query_id for s in fanout}) == 256
    distinct = {(s.keyword, s.query.rect_width, s.query.window_length, s.algorithm) for s in fanout}
    assert len(distinct) == 16
    assert {s.algorithm for s in fanout} == {"gaps", "mgaps"}
    wire = inputs.wire_specs()
    assert len(wire) == 16 and {s.algorithm for s in wire} == {"gaps"}


# ----------------------------------------------------------------------
# Verification catches a planted wrong answer
# ----------------------------------------------------------------------
def _small_exact_run():
    query = SurgeQuery(1.0, 1.0, window_length=100.0)
    objects = inputs.object_stream(11, 400, layout="hotspot")
    monitor = SurgeMonitor(query, "ccs")
    boundaries = []
    for index, chunk in enumerate(inputs.chunked(objects, 50)):
        result = monitor.push_many(chunk)
        if index >= 5:
            boundaries.append(((index + 1) * 50, result))
    return objects, query, boundaries


def test_verify_accepts_the_true_answer_and_rejects_a_planted_one():
    objects, query, boundaries = _small_exact_run()
    assert verify.check_exact(objects, query, boundaries) == []
    seen, result = boundaries[-1]
    wrong_score = dataclasses.replace(result, score=result.score * 1.01)
    problems = verify.check_exact(objects, query, boundaries[:-1] + [(seen, wrong_score)])
    assert problems and "reported score" in problems[0]
    # A region that is real but not the best one is caught by the full sweep.
    early = boundaries[0][1]
    if early.region != result.region:
        moved = dataclasses.replace(
            result, region=early.region,
            score=verify.region_score(
                early.region, *verify.window_contents(objects[:seen], query), query
            ),
        )
        assert any(
            "not the optimum" in p
            for p in verify.check_exact(objects, query, [(seen, moved)])
        )
    assert verify.check_exact(objects, query, [(seen, None)])


def test_verify_approximate_bound_and_planted_score():
    spec = next(s for s in inputs.wire_specs() if s.keyword is None)
    objects = inputs.object_stream(13, 6000, layout="hotspot", spacing=0.01, keywords=True)
    monitor = spec.build_monitor()
    for chunk in inputs.chunked(objects, 64):
        result = monitor.push_many(chunk)
    assert verify.check_approximate(spec, objects, result, bound=True) == []
    wrong = dataclasses.replace(result, score=result.score * 0.5)
    assert verify.check_approximate(spec, objects, wrong, bound=False)
    assert verify.replay_monitor(spec, inputs.chunked(objects, 64)) == result


# ----------------------------------------------------------------------
# BENCHMARK.json is inside the contract and matches what the code emits
# ----------------------------------------------------------------------
def test_benchmark_json_is_within_the_contract():
    doc = metrics.CONTRACT
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["bench"] and doc["command"] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in doc["workloads"])
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    every = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in every] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in every)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = metrics.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_metric_names_follow_the_layers():
    assert list(metrics.END_TO_END) == [
        "setup_s", "throughput_obj_s", "result_lag_p50_ms", "result_lag_p95_ms",
        "cpu_s_per_kobj", "peak_rss_mb",
    ]
    # A layer is a package under src/repro (or the benchmark itself).
    packages = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()}
    assert {name.split(".")[0] for name in metrics.PER_LAYER} <= packages | {"bench"}
    assert "obs.tracer.overhead_share" in metrics.PER_LAYER
    assert metrics.unit_of("core.sweep_backends.busy_s") == "s/kobj"
    assert metrics.bound_of("core.sweep_backends.busy_s") is None
    assert metrics.lower_is_better("setup_s") and not metrics.lower_is_better("throughput_obj_s")
