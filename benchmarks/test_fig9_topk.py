"""Figure 9 — top-k bursty region detection.

Paper:

* Figures 9(a)-(c): per-object runtime of kCCS, kGAPS and kMGAPS as the
  window grows; kCCS does not scale to large windows, the grid-based
  extensions stay in the microsecond range.  The naive per-event top-k
  recomputation is ~100x slower than kCCS (only shown for US).
* Figures 9(d)-(f): runtime vs k ∈ {3, 5, 7, 9}; kCCS grows with k while
  kGAPS / kMGAPS are barely affected.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import scaled
from repro.datasets.profiles import PROFILES
from repro.evaluation.experiments import topk_runtime_vs_k, topk_runtime_vs_window
from repro.evaluation.tables import format_paper_expectation, format_series


@pytest.mark.parametrize("profile_key", ["taxi", "uk", "us"])
def test_fig9_topk_runtime_vs_window(benchmark, record, profile_key):
    profile = PROFILES[profile_key]
    series = benchmark.pedantic(
        topk_runtime_vs_window,
        kwargs={
            "profile": profile,
            "n_objects": scaled(700),
            "k": 3,
            "algorithms": ("kccs", "kgaps", "kmgaps"),
        },
        rounds=1,
        iterations=1,
    )
    text = format_series(
        f"Figure 9 (window sweep, {profile.name}, k=3): mean µs per object",
        "window_s",
        series,
    )
    text += "\n" + format_paper_expectation(
        "kCCS is orders of magnitude slower than kGAPS / kMGAPS and degrades "
        "with the window length; the grid-based extensions stay fast."
    )
    print("\n" + text)
    record(f"fig9_window_{profile.name.lower()}", text)

    mean = lambda name: sum(series[name].values()) / len(series[name])
    assert mean("kgaps") <= mean("kccs")
    assert mean("kmgaps") <= mean("kccs")
    assert mean("kgaps") <= mean("kmgaps") * 1.5


def test_fig9_topk_runtime_vs_k(benchmark, record):
    """Figures 9(d)-(f), collapsed to the Taxi profile at benchmark scale."""
    profile = PROFILES["taxi"]

    def sweep():
        return {
            name: topk_runtime_vs_k(
                profile,
                algorithm=name,
                n_objects=scaled(600) if name == "kccs" else scaled(2000),
                k_values=(3, 5, 7, 9),
            )
            for name in ("kccs", "kgaps", "kmgaps")
        }

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_series(
        "Figure 9(d-f) (Taxi): mean µs per object vs k",
        "k",
        series,
    )
    text += "\n" + format_paper_expectation(
        "kCCS's per-object time increases with k; kGAPS and kMGAPS are barely affected."
    )
    print("\n" + text)
    record("fig9_k_sweep", text)

    kccs = series["kccs"]
    assert kccs[9] >= kccs[3] * 0.8  # grows (or at least does not shrink) with k
    for name in ("kgaps", "kmgaps"):
        values = list(series[name].values())
        assert max(values) <= 20.0 * max(min(values), 1e-9)
    mean = lambda name: sum(series[name].values()) / len(series[name])
    assert mean("kgaps") <= mean("kccs")


def test_fig9_naive_topk_much_slower_than_kccs(benchmark, record):
    """The paper's note that naive per-event top-k recomputation is ~100x kCCS.

    The naive strategy re-solves the k chained CSPOT problems from scratch
    with full-space sweeps on every event (no cells, no bounds, no memoised
    candidates); we compare it against kCCS on a small US-profile stream.
    kCCS recomputes lazily, so its timed region reads ``top_k()`` once per
    object (the continuous-query contract ``evaluation/runner.py`` applies);
    without the read it would time record updates only.  The naive cost is
    measured on a sample of the events (it is uniform per event, so the
    sample mean is representative).
    """
    import time

    from repro.core.sweepline import LabeledRect, sweep_bursty_point
    from repro.datasets.workloads import default_query_for_profile
    from repro.evaluation.experiments import prepare_stream
    from repro.streams.windows import SlidingWindowPair
    from repro.topk.kccs import CellCSPOTTopK

    profile = PROFILES["us"]

    def naive_topk(state, query):
        """Greedy top-k by repeated full-space sweeps (no index at all)."""
        rects = [
            LabeledRect(o.x, o.y, o.x + query.rect_width, o.y + query.rect_height, o.weight, True)
            for o in state.current
        ] + [
            LabeledRect(o.x, o.y, o.x + query.rect_width, o.y + query.rect_height, o.weight, False)
            for o in state.past
        ]
        results = []
        for _ in range(query.k):
            if not rects:
                break
            outcome = sweep_bursty_point(
                rects, query.alpha, query.current_length, query.past_length
            )
            if outcome is None:
                break
            results.append(outcome)
            point = outcome.point
            rects = [
                r
                for r in rects
                if not (r.min_x <= point.x <= r.max_x and r.min_y <= point.y <= r.max_y)
            ]
        return results

    def run():
        stream = prepare_stream(profile, scaled(150), span_seconds=3600.0, seed=7)
        query = default_query_for_profile(profile, window_seconds=1200.0, k=3)

        kccs = CellCSPOTTopK(query)
        windows = SlidingWindowPair(query.window_length)
        kccs_time = 0.0
        naive_time = 0.0
        naive_samples = 0
        for index, obj in enumerate(stream):
            events = windows.observe(obj)
            started = time.perf_counter()
            for event in events:
                kccs.process(event)
            kccs.top_k()
            kccs_time += time.perf_counter() - started

            if index % 5 == 0:
                started = time.perf_counter()
                naive_topk(windows.state(), query)
                naive_time += time.perf_counter() - started
                naive_samples += 1
        kccs_micros = kccs_time / len(stream) * 1e6
        naive_micros = naive_time / max(naive_samples, 1) * 1e6
        return kccs_micros, naive_micros

    kccs_micros, naive_micros = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Figure 9(c) inset (US): naive top-k recomputation vs kCCS\n"
        f"  kCCS   mean µs/object = {kccs_micros:.1f}\n"
        f"  Naive  mean µs/object = {naive_micros:.1f}\n"
        f"  slowdown factor       = {naive_micros / max(kccs_micros, 1e-9):.1f}x"
    )
    text += "\n" + format_paper_expectation(
        "the naive solution is roughly two orders of magnitude slower than kCCS."
    )
    print("\n" + text)
    record("fig9_naive_vs_kccs", text)
    assert naive_micros > kccs_micros
