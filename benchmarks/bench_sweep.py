"""Microbenchmark of the SL-CSPOT sweep kernels: seed vs python vs numpy.

Measures rectangles-per-second of one full snapshot sweep at several sizes
and writes ``BENCH_sweep.json`` at the repository root so the performance
trajectory is tracked across PRs.  Three kernels are timed:

``python_seed``
    A faithful copy of the original pure-Python kernel (full slab rescan at
    every y event), kept here as the fixed reference point of the
    trajectory.

``python``
    The optimized pure-Python backend (incremental slab evaluation).

``numpy``
    The vectorized, event-blocked backend (skipped when numpy is not
    installed).

Regression guard
----------------
When a previous ``BENCH_sweep.json`` exists, the script refuses to overwrite
it if any backend regressed by more than ``REGRESSION_TOLERANCE`` (20%) on
any size, exiting non-zero; pass ``--force`` to overwrite anyway.  The seed
reference is exempt — it is the yardstick, not a shipped code path — and so
is a recorded kernel this script no longer times (a retired one; a kernel
that is merely unavailable here, e.g. numpy not installed, still blocks).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--force] [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

from repro.core.sweep_backends import available_backends, get_backend
from repro.core.sweep_backends.types import LabeledRect
from repro.geometry.primitives import Point

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
SCHEMA = "bench_sweep/v1"
SIZES = (100, 500, 2000)
#: Shipped kernels the regression guard protects.  The seed reference is the
#: yardstick; any other recorded name is a kernel that has since been retired.
GUARDED_KERNELS = ("python", "numpy")
SEED = 20180416  # the paper's conference date, for want of a better constant
REGRESSION_TOLERANCE = 0.20


# ----------------------------------------------------------------------
# Reference: the seed kernel (pre-backend refactor), verbatim behaviour.
# ----------------------------------------------------------------------
def seed_sweep(rect_list, alpha, current_length, past_length):
    """The original O(|ys| · |slabs|) kernel: full rescan at every y event."""
    xs = sorted({r.min_x for r in rect_list} | {r.max_x for r in rect_list})
    slab_count = 2 * len(xs) - 1
    slab_repr_x = [0.0] * slab_count
    for index, x in enumerate(xs):
        slab_repr_x[2 * index] = x
        if index + 1 < len(xs):
            slab_repr_x[2 * index + 1] = (x + xs[index + 1]) / 2.0
    x_position = {x: index for index, x in enumerate(xs)}
    slab_ranges = [
        (2 * x_position[r.min_x], 2 * x_position[r.max_x]) for r in rect_list
    ]

    ys = sorted({r.min_y for r in rect_list} | {r.max_y for r in rect_list})
    ys_desc = list(reversed(ys))
    tops, bottoms = {}, {}
    for index, rect in enumerate(rect_list):
        tops.setdefault(rect.max_y, []).append(index)
        bottoms.setdefault(rect.min_y, []).append(index)

    fc = [0.0] * slab_count
    fp = [0.0] * slab_count
    best_score = -math.inf
    best_point = None
    one_minus_alpha = 1.0 - alpha

    def evaluate(y_repr):
        nonlocal best_score, best_point
        for j in range(slab_count):
            slab_fc = fc[j]
            increase = slab_fc - fp[j]
            if increase < 0.0:
                increase = 0.0
            score = alpha * increase + one_minus_alpha * slab_fc
            if score > best_score:
                best_score = score
                best_point = Point(slab_repr_x[j], y_repr)

    def apply(index, sign):
        rect = rect_list[index]
        lo, hi = slab_ranges[index]
        delta = sign * rect.weight / (
            current_length if rect.in_current else past_length
        )
        target = fc if rect.in_current else fp
        for j in range(lo, hi + 1):
            target[j] += delta

    for position, y in enumerate(ys_desc):
        for index in tops.get(y, ()):
            apply(index, +1.0)
        evaluate(y)
        for index in bottoms.get(y, ()):
            apply(index, -1.0)
        if position + 1 < len(ys_desc):
            evaluate((y + ys_desc[position + 1]) / 2.0)

    return best_score, best_point


def make_snapshot(n: int, seed: int = SEED) -> list[LabeledRect]:
    """A reproducible random snapshot shaped like one dense detector cell."""
    rng = random.Random(seed + n)
    rects = []
    for _ in range(n):
        x = rng.uniform(0.0, 10.0)
        y = rng.uniform(0.0, 10.0)
        w = rng.uniform(0.2, 2.0)
        h = rng.uniform(0.2, 2.0)
        rects.append(
            LabeledRect(x, y, x + w, y + h, rng.uniform(0.5, 10.0), rng.random() < 0.7)
        )
    return rects


def time_call(fn, min_seconds: float = 0.25, max_repeats: int = 50) -> float:
    """Best-of wall-clock seconds for one call, repeating cheap calls."""
    best = math.inf
    elapsed_total = 0.0
    repeats = 0
    while repeats < max_repeats and (repeats < 3 or elapsed_total < min_seconds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        elapsed_total += elapsed
        repeats += 1
    return best


def run_benchmark(sizes=SIZES) -> dict:
    kernels = {
        "python_seed": lambda rects, a, wc, wp: seed_sweep(rects, a, wc, wp),
        "python": get_backend("python").sweep,
    }
    if "numpy" in available_backends():
        kernels["numpy"] = get_backend("numpy").sweep

    results: dict[str, dict[str, dict[str, float]]] = {}
    scores: dict[int, dict[str, float]] = {}
    for name, kernel in kernels.items():
        results[name] = {}
        for n in sizes:
            rects = make_snapshot(n)
            # Sanity: all kernels must agree on the optimum before timing.
            outcome = kernel(rects, 0.5, 300.0, 300.0)
            score = outcome[0] if isinstance(outcome, tuple) else outcome.score
            scores.setdefault(n, {})[name] = score
            seconds = time_call(lambda: kernel(rects, 0.5, 300.0, 300.0))
            results[name][str(n)] = {
                "seconds_per_sweep": seconds,
                "rects_per_second": n / seconds,
            }
            print(
                f"  {name:>12} n={n:<5} {seconds * 1e3:9.2f} ms/sweep   "
                f"{n / seconds:12.0f} rects/s",
                flush=True,
            )
    for n, per_kernel in scores.items():
        reference = per_kernel["python_seed"]
        for name, score in per_kernel.items():
            if abs(score - reference) > 1e-9 * max(1.0, abs(reference)):
                raise AssertionError(
                    f"kernel {name} disagrees with seed at n={n}: "
                    f"{score!r} vs {reference!r}"
                )

    largest = str(max(sizes))
    speedups = {}
    for name in kernels:
        if name == "python_seed":
            continue
        speedups[f"{name}_vs_seed_n{largest}"] = (
            results[name][largest]["rects_per_second"]
            / results["python_seed"][largest]["rects_per_second"]
        )
    return {
        "schema": SCHEMA,
        "config": {
            "sizes": list(sizes),
            "seed": SEED,
            "alpha": 0.5,
            "window_length": 300.0,
        },
        "results": results,
        "speedups": speedups,
    }


def check_regression(old: dict, new: dict, tolerance: float = REGRESSION_TOLERANCE):
    """Backends (not the seed reference) that slowed down beyond tolerance."""
    regressions = []
    for name, sizes in old.get("results", {}).items():
        if name not in GUARDED_KERNELS:
            continue
        if name not in new["results"]:
            # Overwriting would silently drop this kernel's trajectory
            # (typically a numpy-free environment re-running the bench).
            regressions.append(
                f"{name}: kernel missing from the new run (backend not "
                "available?); refusing to drop its recorded trajectory"
            )
            continue
        for n, metrics in sizes.items():
            if n not in new["results"][name]:
                continue
            before = metrics["rects_per_second"]
            after = new["results"][name][n]["rects_per_second"]
            if after < before * (1.0 - tolerance):
                regressions.append(
                    f"{name} n={n}: {before:.0f} -> {after:.0f} rects/s "
                    f"({100.0 * (1.0 - after / before):.1f}% slower)"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="overwrite BENCH_sweep.json even on regression"
    )
    parser.add_argument(
        "--quick", action="store_true", help="skip the largest size (CI smoke mode)"
    )
    parser.add_argument("--out", default=str(OUTPUT_PATH), help="output JSON path")
    args = parser.parse_args(argv)

    sizes = SIZES[:-1] if args.quick else SIZES
    print(f"bench_sweep: sizes={list(sizes)} backends={list(available_backends())}")
    report = run_benchmark(sizes)
    for label, value in report["speedups"].items():
        print(f"  {label}: {value:.1f}x")

    out_path = Path(args.out)
    if args.quick and args.out == str(OUTPUT_PATH):
        # Smoke mode: without the largest size the record would be partial,
        # so never clobber the tracked trajectory file with it.
        print("quick mode: skipping BENCH_sweep.json update (pass --out to write)")
        return 0
    if out_path.exists() and not args.force:
        old = json.loads(out_path.read_text())
        regressions = check_regression(old, report)
        if regressions:
            print(
                "refusing to overwrite {}: performance regressed >{}%\n  {}".format(
                    out_path, int(REGRESSION_TOLERANCE * 100), "\n  ".join(regressions)
                ),
                file=sys.stderr,
            )
            return 1
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
