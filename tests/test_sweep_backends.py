"""Backend parity and selection tests for the pluggable SL-CSPOT kernels.

The centrepiece is a randomized property test over ≥200 seeded rectangle
snapshots — including degenerate, edge-aligned and zero-area cases — that
asserts the ``numpy`` and ``python`` backends return identical best scores
and that every reported argmax point actually achieves its reported score,
cross-checked against the brute-force arrangement scorer.
"""

from __future__ import annotations

import random

import pytest

from tests.helpers import make_objects
from repro.core.burst import burst_score
from repro.core.sweep_backends import (
    AdaptiveSweepBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.core.sweepline import LabeledRect, sweep_bursty_point
from repro.geometry.primitives import Rect

HAVE_NUMPY = "numpy" in available_backends()

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy backend not available"
)

#: Score agreement tolerance between backends: the numpy kernel sums a
#: block of events at a time, in another order than the per-slab accumulation
#: of the python kernel, so the last few ulps may differ.
PARITY_RTOL = 1e-9

#: Looser tolerance against the brute-force scorer (independent arithmetic).
BRUTE_RTOL = 1e-6


def random_snapshot(rng: random.Random) -> list[LabeledRect]:
    """One random rectangle snapshot, biased towards degenerate structure.

    Four flavours rotate through the seeds: continuous coordinates, lattice
    coordinates (forcing shared/collinear edges), zero-area degenerate
    rectangles mixed in, and duplicated rectangles.
    """
    flavour = rng.randrange(4)
    count = rng.randint(1, 24)
    rects: list[LabeledRect] = []
    for _ in range(count):
        if flavour == 1:
            # Integer lattice: many rectangles share edge coordinates exactly.
            x = float(rng.randint(0, 6))
            y = float(rng.randint(0, 6))
            w = float(rng.randint(0, 3))
            h = float(rng.randint(0, 3))
        elif flavour == 2 and rng.random() < 0.4:
            # Degenerate: zero width and/or height (points and segments).
            x = rng.uniform(0.0, 8.0)
            y = rng.uniform(0.0, 8.0)
            w = 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 2.0)
            h = 0.0
        else:
            x = rng.uniform(0.0, 8.0)
            y = rng.uniform(0.0, 8.0)
            w = rng.uniform(0.1, 3.0)
            h = rng.uniform(0.1, 3.0)
        weight = rng.uniform(0.1, 20.0)
        rects.append(LabeledRect(x, y, x + w, y + h, weight, rng.random() < 0.7))
    if flavour == 3 and len(rects) > 1:
        rects.extend(rects[: len(rects) // 2])  # exact duplicates
    return rects


def brute_force_best_score(rects, alpha, wc, wp):
    """Max burst score over every candidate point of the arrangement."""
    xs = sorted({r.min_x for r in rects} | {r.max_x for r in rects})
    ys = sorted({r.min_y for r in rects} | {r.max_y for r in rects})
    candidates_x = list(xs) + [(a + b) / 2.0 for a, b in zip(xs, xs[1:])]
    candidates_y = list(ys) + [(a + b) / 2.0 for a, b in zip(ys, ys[1:])]
    best = 0.0
    for x in candidates_x:
        for y in candidates_y:
            fc = sum(
                r.weight / wc
                for r in rects
                if r.in_current and r.min_x <= x <= r.max_x and r.min_y <= y <= r.max_y
            )
            fp = sum(
                r.weight / wp
                for r in rects
                if not r.in_current
                and r.min_x <= x <= r.max_x
                and r.min_y <= y <= r.max_y
            )
            best = max(best, burst_score(fc, fp, alpha))
    return best


def score_at_point(rects, point, alpha, wc, wp):
    """Direct burst score of ``point`` by summation over covering rectangles."""
    fc = sum(
        r.weight / wc
        for r in rects
        if r.in_current
        and r.min_x <= point.x <= r.max_x
        and r.min_y <= point.y <= r.max_y
    )
    fp = sum(
        r.weight / wp
        for r in rects
        if not r.in_current
        and r.min_x <= point.x <= r.max_x
        and r.min_y <= point.y <= r.max_y
    )
    return burst_score(fc, fp, alpha), fc, fp


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@needs_numpy
class TestBackendParity:
    def test_randomized_parity_and_brute_force_crosscheck(self):
        python = get_backend("python")
        numpy = get_backend("numpy")
        checked = 0
        brute_checked = 0
        for seed in range(220):
            rng = random.Random(seed)
            rects = random_snapshot(rng)
            alpha = rng.choice([0.0, 0.3, 0.5, 0.9, 0.95])
            wc = rng.choice([1.0, 2.0, 20.0])
            wp = rng.choice([1.0, 2.0, 20.0])

            py = python.sweep(rects, alpha, wc, wp)
            results = {"python": py, "numpy": numpy.sweep(rects, alpha, wc, wp)}

            for label, nu in results.items():
                # Identical best scores (up to summation-order rounding).
                assert close(py.score, nu.score, PARITY_RTOL), (
                    f"seed {seed}: python={py.score!r} {label}={nu.score!r}"
                )
                assert nu.rectangles_swept == len(rects)
                # Each backend's argmax point must actually achieve its score.
                direct, fc, fp = score_at_point(rects, nu.point, alpha, wc, wp)
                assert close(nu.score, direct, BRUTE_RTOL)
                assert close(nu.fc, fc, BRUTE_RTOL)
                assert close(nu.fp, fp, BRUTE_RTOL)

            # Cross-check the optimum against exhaustive candidate
            # enumeration on the smaller snapshots (the scorer is cubic).
            if len(rects) <= 12:
                expected = brute_force_best_score(rects, alpha, wc, wp)
                assert close(py.score, expected, BRUTE_RTOL)
                brute_checked += 1
            checked += 1
        assert checked >= 200
        assert brute_checked >= 50

    def test_numpy_backend_has_no_strategy_knob(self):
        from repro.core.sweep_backends.numpy_backend import NumpySweepBackend

        with pytest.raises(TypeError):
            NumpySweepBackend(strategy="cumsum")

    def test_parity_with_bounds_clipping(self):
        bounds = Rect(2.0, 2.0, 6.0, 6.0)
        for seed in range(60):
            rng = random.Random(1000 + seed)
            rects = random_snapshot(rng)
            py = sweep_bursty_point(rects, 0.5, 1.0, 1.0, bounds=bounds, backend="python")
            nu = sweep_bursty_point(rects, 0.5, 1.0, 1.0, bounds=bounds, backend="numpy")
            assert (py is None) == (nu is None)
            if py is not None:
                assert close(py.score, nu.score, PARITY_RTOL)
                assert bounds.contains_point(py.point)
                assert bounds.contains_point(nu.point)

    def test_detectors_agree_across_backends(self):
        from tests.helpers import feed, scores_close
        from repro.core.cell_cspot import CellCSPOT
        from repro.core.query import SurgeQuery

        query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0)
        objects = make_objects(80, seed=31, extent=6.0)
        results = {}
        for backend in ("python", "numpy"):
            detector = CellCSPOT(query, backend=backend)
            feed(detector, objects, query.window_length)
            results[backend] = detector.current_score()
        assert scores_close(results["python"], results["numpy"])


def cell_snapshot(rng: random.Random, count: int, current_share: float = 0.6):
    """What a detector cell hands the kernel: unit squares clipped to one cell.

    Every rectangle touches a cell corner, so about half of them share the
    cell's top edge, half its bottom edge, and likewise left and right —
    mass coordinate ties, and a first add group far larger than a block.
    """
    from repro.core.cells import CellState
    from repro.streams.objects import RectangleObject

    cell = CellState(bounds=Rect(2.0, 2.0, 3.0, 3.0))
    for object_id in range(count):
        rect = RectangleObject(
            x=rng.uniform(1.0, 3.0), y=rng.uniform(1.0, 3.0), width=1.0, height=1.0,
            timestamp=0.0, weight=float(rng.randint(1, 100)), object_id=object_id,
        )
        cell.add_new(rect, 50.0)
        if rng.random() >= current_share:
            cell.mark_grown(rect, 50.0)
    return cell.labeled_rects()


def lattice_snapshot(rng: random.Random, count: int, side: int = 4):
    """Small integer coordinates: shared rows, shared columns, duplicates."""
    rects = []
    for _ in range(count):
        x, y = rng.randint(0, side), rng.randint(0, side)
        rects.append(
            LabeledRect(
                float(x), float(y), float(x + rng.randint(0, 2)),
                float(y + rng.randint(0, 2)), float(rng.randint(1, 9)),
                rng.random() < 0.5,
            )
        )
    return rects


@needs_numpy
class TestBlockedKernel:
    """What an event-blocked sweep can get wrong that a sequential one cannot."""

    #: Brute force is cubic; larger snapshots are pinned to the python kernel.
    BRUTE_MAX = 40

    def check(self, rects, alpha=0.5, wc=50.0, wp=50.0):
        numpy = get_backend("numpy")
        nu = numpy.sweep(rects, alpha, wc, wp)
        py = get_backend("python").sweep(rects, alpha, wc, wp)
        assert close(nu.score, py.score, PARITY_RTOL), (nu, py)
        if len(rects) <= self.BRUTE_MAX:
            expected = brute_force_best_score(rects, alpha, wc, wp)
            assert close(nu.score, expected, PARITY_RTOL), (nu, expected)
        # The result is self-consistent: the window scores are the direct
        # sums at the reported point and the score is their burst score.
        direct, fc, fp = score_at_point(rects, nu.point, alpha, wc, wp)
        assert nu.score == burst_score(nu.fc, nu.fp, alpha)
        assert close(nu.fc, fc, 1e-12) and close(nu.fp, fp, 1e-12)
        assert close(nu.score, direct, 1e-12)
        assert nu.rectangles_swept == len(rects)
        # ... and a pure function of the input (executor bit-identity).
        assert numpy.sweep(rects, alpha, wc, wp) == nu
        return nu

    @pytest.fixture(params=[2, 3, 5, 64])
    def block_events(self, request, monkeypatch):
        """Shrink the block so small (brute-forceable) snapshots straddle it."""
        from repro.core.sweep_backends import numpy_backend

        monkeypatch.setattr(numpy_backend, "BLOCK_EVENTS", request.param)
        return request.param

    @pytest.mark.parametrize("count", [1, 2, 3, 8, 31, 40, 97, 128, 333])
    def test_cell_clipped_snapshots(self, count):
        for seed in range(4):
            rng = random.Random(7000 + 31 * count + seed)
            rects = cell_snapshot(rng, count)
            assert len(rects) == count
            self.check(rects, alpha=rng.choice([0.0, 0.5, 0.9]))

    def test_rows_shared_by_current_and_past(self, block_events):
        # The current square lies inside the heavy past one.  Scoring between
        # the two events of a shared row would see the current one alone.
        current = LabeledRect(1.0, 0.0, 2.0, 2.0, 10.0, True)
        past_same_top = LabeledRect(0.0, 0.0, 3.0, 2.0, 50.0, False)
        past_taller = LabeledRect(0.0, 0.0, 3.0, 3.0, 50.0, False)
        below = LabeledRect(10.0, -5.0, 11.0, -4.0, 1.0, True)  # bottoms at 0 are not last
        for pair in ((current, past_same_top), (past_same_top, current),
                     (current, past_taller), (past_taller, current)):
            for rects in (list(pair), list(pair) + [below], [below] + list(pair)):
                result = self.check(rects, alpha=0.5, wc=10.0, wp=10.0)
                assert result.score == pytest.approx(0.5)

    @pytest.mark.parametrize("count", [1, 2, 3, 17])
    def test_all_past_snapshots_report_a_real_zero(self, count, block_events):
        for seed in range(6):
            rng = random.Random(8100 + 13 * count + seed)
            rects = [
                LabeledRect(r.min_x, r.min_y, r.max_x, r.max_y, r.weight, False)
                for r in lattice_snapshot(rng, count)
            ]
            result = self.check(rects)
            assert result.score == 0.0 and result.fc == 0.0

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_tiny_snapshots(self, count, block_events):
        for seed in range(40):
            rng = random.Random(8200 + 7 * count + seed)
            self.check(lattice_snapshot(rng, count), alpha=rng.choice([0.0, 0.3, 0.95]))

    def test_step_groups_straddle_small_blocks(self, block_events):
        for seed in range(60):
            rng = random.Random(8300 + seed)
            self.check(lattice_snapshot(rng, rng.randint(4, 14), side=3))

    @pytest.mark.parametrize("count", [33, 64, 65, 96, 127, 160, 200])
    def test_step_groups_straddle_full_blocks(self, count):
        # Lattice rows hold ~count/5 events each (more than a block for the
        # larger sizes); the sizes leave the last block full, short or single.
        for seed in range(3):
            rng = random.Random(8400 + 5 * count + seed)
            self.check(lattice_snapshot(rng, count))

    def test_property_small_integer_snapshots(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.sweep_backends import numpy_backend

        small = st.integers(min_value=0, max_value=4)
        rect = st.builds(
            lambda x, y, w, h, weight, cur: LabeledRect(
                float(x), float(y), float(x + w), float(y + h), float(weight), cur
            ),
            small, small, st.integers(0, 2), st.integers(0, 2),
            st.integers(1, 9), st.booleans(),
        )

        @given(
            rects=st.lists(rect, min_size=1, max_size=10),
            alpha=st.sampled_from([0.0, 0.25, 0.5, 0.95]),
            block=st.sampled_from([2, 3, 7, 64]),
        )
        @settings(max_examples=150, deadline=None)
        def run(rects, alpha, block):
            shipped = numpy_backend.BLOCK_EVENTS
            numpy_backend.BLOCK_EVENTS = block
            try:
                self.check(rects, alpha, wc=3.0, wp=7.0)
            finally:
                numpy_backend.BLOCK_EVENTS = shipped

        run()


class TestBackendSelection:
    def test_available_backends_always_include_python_and_auto(self):
        names = available_backends()
        assert "python" in names
        assert "auto" in names

    def test_get_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            get_backend("fortran")

    def test_resolve_backend_passes_instances_through(self):
        instance = get_backend("python")
        assert resolve_backend(instance) is instance

    def test_resolve_backend_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "python")
        assert resolve_backend(None).name == "python"
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "")
        assert resolve_backend(None).name == "auto"

    @needs_numpy
    def test_adaptive_backend_dispatches_by_size(self):
        adaptive = AdaptiveSweepBackend(numpy_threshold=4)
        small = [LabeledRect(0, 0, 1, 1, 1.0, True)]
        large = [
            LabeledRect(i * 0.1, 0, i * 0.1 + 1, 1, 1.0, True) for i in range(10)
        ]
        # Both paths must produce the same optimum on the same input.
        for rects in (small, large):
            auto = adaptive.sweep(rects, 0.5, 1.0, 1.0)
            reference = get_backend("python").sweep(rects, 0.5, 1.0, 1.0)
            assert close(auto.score, reference.score, PARITY_RTOL)

    def test_facade_accepts_backend_names(self):
        rects = [LabeledRect(0, 0, 1, 1, 2.0, True)]
        for name in available_backends():
            result = sweep_bursty_point(rects, 0.5, 1.0, 1.0, backend=name)
            assert result is not None
            assert result.score == pytest.approx(2.0)


class TestMonitorBatching:
    def test_push_many_matches_sequential_push(self):
        from repro.core.monitor import SurgeMonitor
        from repro.core.query import SurgeQuery

        query = SurgeQuery(
            rect_width=1.0, rect_height=1.0, window_length=20.0, k=3
        )
        objects = make_objects(90, seed=41, extent=6.0)
        sequential = SurgeMonitor(query, algorithm="kccs")
        batched = SurgeMonitor(query, algorithm="kccs")
        last = None
        for obj in objects:
            last = sequential.push(obj)
        batch_result = batched.push_many(objects)
        assert sequential.objects_seen == batched.objects_seen == len(objects)
        assert (last is None) == (batch_result is None)
        if last is not None:
            assert batch_result.score == pytest.approx(last.score)
        top_sequential = [r.score for r in sequential.top_k()]
        top_batched = [r.score for r in batched.top_k()]
        assert top_batched == pytest.approx(top_sequential)

    def test_make_detector_threads_backend(self):
        from repro.core.monitor import make_detector
        from repro.core.query import SurgeQuery

        query = SurgeQuery(rect_width=1.0, rect_height=1.0, window_length=20.0)
        detector = make_detector("ccs", query, backend="python")
        assert detector.sweep_backend.name == "python"
        # Grid approximations perform no sweep; the option is ignored.
        gaps = make_detector("gaps", query, backend="python")
        assert not hasattr(gaps, "sweep_backend")

    def test_cli_backend_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.io import write_csv_stream
        from repro.streams.objects import SpatialObject

        # Stream written directly (not via the generate command) so this
        # also runs on the numpy-free install.
        stream_path = tmp_path / "stream.csv"
        write_csv_stream(
            stream_path,
            [
                SpatialObject(
                    x=obj.x / 100.0,
                    y=obj.y / 100.0,
                    timestamp=obj.timestamp * 20.0,
                    weight=obj.weight,
                    object_id=obj.object_id,
                )
                for obj in make_objects(150, seed=13)
            ],
        )
        capsys.readouterr()
        outputs = {}
        for backend in ("python",) + (("numpy",) if HAVE_NUMPY else ()):
            code = main(
                [
                    "run",
                    str(stream_path),
                    "--algorithm",
                    "ccs",
                    "--backend",
                    backend,
                    "--rect",
                    "0.01",
                    "0.006",
                    "--window",
                    "300",
                    "--report-every",
                    "50",
                ]
            )
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        if HAVE_NUMPY:
            # Same stream, same reported scores — regardless of kernel (the
            # argmax point may legitimately differ between backends on ties).
            import re

            scores = {
                backend: [float(s) for s in re.findall(r"score=([0-9.]+)", text)]
                for backend, text in outputs.items()
            }
            assert scores["python"], "expected at least one reported region"
            assert scores["numpy"] == pytest.approx(scores["python"])


class TestCrossoverOverride:
    """The auto backend's python→numpy crossover (REPRO_SWEEP_CROSSOVER)."""

    def test_default_threshold(self, monkeypatch):
        from repro.core.sweep_backends import (
            AUTO_NUMPY_THRESHOLD,
            AdaptiveSweepBackend,
            CROSSOVER_ENV_VAR,
        )

        monkeypatch.delenv(CROSSOVER_ENV_VAR, raising=False)
        assert AdaptiveSweepBackend().numpy_threshold == AUTO_NUMPY_THRESHOLD

    def test_env_var_overrides_default(self, monkeypatch):
        from repro.core.sweep_backends import AdaptiveSweepBackend, CROSSOVER_ENV_VAR

        monkeypatch.setenv(CROSSOVER_ENV_VAR, "64")
        assert AdaptiveSweepBackend().numpy_threshold == 64

    def test_explicit_argument_wins_over_env_var(self, monkeypatch):
        from repro.core.sweep_backends import AdaptiveSweepBackend, CROSSOVER_ENV_VAR

        monkeypatch.setenv(CROSSOVER_ENV_VAR, "64")
        assert AdaptiveSweepBackend(numpy_threshold=300).numpy_threshold == 300

    @pytest.mark.parametrize("bogus", ["abc", "19.5", "0", "-3", "1e3"])
    def test_invalid_values_rejected(self, monkeypatch, bogus):
        from repro.core.sweep_backends import AdaptiveSweepBackend, CROSSOVER_ENV_VAR

        monkeypatch.setenv(CROSSOVER_ENV_VAR, bogus)
        with pytest.raises(ValueError):
            AdaptiveSweepBackend()

    def test_resolve_crossover_whitespace_falls_back(self, monkeypatch):
        from repro.core.sweep_backends import (
            AUTO_NUMPY_THRESHOLD,
            CROSSOVER_ENV_VAR,
            resolve_crossover,
        )

        monkeypatch.setenv(CROSSOVER_ENV_VAR, "   ")
        assert resolve_crossover() == AUTO_NUMPY_THRESHOLD

    @needs_numpy
    def test_crossover_controls_kernel_selection(self, monkeypatch):
        from repro.core.sweep_backends import AdaptiveSweepBackend, CROSSOVER_ENV_VAR

        monkeypatch.setenv(CROSSOVER_ENV_VAR, "3")
        backend = AdaptiveSweepBackend()
        rects = [
            LabeledRect(float(i), 0.0, float(i) + 1.5, 1.0, 1.0, True)
            for i in range(4)
        ]
        # 4 rects >= crossover 3: the numpy kernel serves the sweep; its
        # answer must match the pure-python kernel's bit for bit.
        from repro.core.sweep_backends import PythonSweepBackend

        auto_result = backend.sweep(rects, 0.5, 10.0, 10.0)
        python_result = PythonSweepBackend().sweep(rects, 0.5, 10.0, 10.0)
        assert auto_result.score == pytest.approx(python_result.score, rel=1e-12)
