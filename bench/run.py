#!/usr/bin/env python3
"""The benchmark's one command.

One run (the form the driver calls)::

    python3 bench/run.py --workload exact_hotspot --seed 7 --seconds 20 --trace 0

builds the workload's inputs from the seed, sets the system up (three times
on an untraced run: ``setup_s`` is the median), measures for ``--seconds``,
verifies the outputs and prints every metric by name with its unit, then —
as the last line of stdout — one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` yields the end-to-end metrics;
``--trace 1`` records spans around the calls into each layer, yields the
per-layer metrics and writes ``bench/out/<workload>.trace.json``.

The whole benchmark (every workload, untraced then traced, each run in a
fresh child process)::

    python3 bench/run.py [--seed N] [--only WORKLOAD] [--repeat N] [--out FILE]
    python3 bench/run.py --compare A.json B.json

``--repeat`` uses seeds ``N, N+1, ...`` and prints median, quartiles and
relative spread beside each bound; ``--compare`` exits non-zero when two
result files disagree beyond a bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    # Also the answer in a directory that holds only the benchmark's files.
    sys.exit(f"bench/run.py: the program is not here ({SRC / 'repro'} is missing)")
for path in (str(ROOT), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import metrics as tables  # noqa: E402
from bench.inputs import DEFAULT_SEED  # noqa: E402
from bench.probes import SpanLog, median_and_quartiles, percentile  # noqa: E402
from bench.workloads import SCRUBBED_ENV, WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 175


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def untraced_run(workload, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics: the program built exactly as a user builds it."""
    setups = []
    system = inputs = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            workload.teardown(system)
            system = inputs = None
            gc.collect()
        started = perf_counter()
        inputs = workload.generate(seed)
        system = workload.setup(inputs, workdir, None)
        setups.append(perf_counter() - started)
    try:
        m = workload.measure(system, inputs, seconds=seconds)
        # Before verification, which allocates in this process too.
        peak_rss = workload.peak_rss_mb(system)
    finally:
        workload.teardown(system)
    problems = workload.verify(inputs, m)
    values = {
        "setup_s": median(setups),
        "throughput_obj_s": m.throughput_objects / m.wall_s,
        "result_lag_p50_ms": 1e3 * percentile(m.lags_s, 0.50),
        "result_lag_p95_ms": 1e3 * percentile(m.lags_s, 0.95),
        "cpu_s_per_kobj": 1e3 * m.cpu_s / m.objects,
        "peak_rss_mb": peak_rss,
    }
    notes = [
        f"objects={m.objects} lag_samples={len(m.lags_s)} "
        f"failed_share={m.failed}/{m.attempted} setups={[round(s, 3) for s in setups]}"
    ]
    return values, m, problems, notes


def traced_run(workload, seed: int, seconds: float, workdir: Path):
    """Per-layer metrics: a traced pass for half the time, then the same
    work untraced, so the tracing overhead is measured on identical inputs."""
    log = SpanLog()
    inputs = workload.generate(seed)
    system = workload.setup(inputs, workdir, log)
    try:
        m = workload.measure(system, inputs, seconds=seconds / 2.0, log=log)
        report = workload.layers(system, inputs, m, log, workdir)
    finally:
        workload.teardown(system)
    started = perf_counter()
    problems = workload.verify(inputs, m)
    verify_s = perf_counter() - started

    system = workload.setup(inputs, workdir, None)
    try:
        replay = workload.measure(system, inputs, limit=m.extra.get("limit", m.objects))
    finally:
        workload.teardown(system)
    if replay.throughput_objects != m.throughput_objects:
        report.missing.append("obs.tracer.overhead_share")
    else:
        report.values["obs.tracer.overhead_share"] = (m.wall_s - replay.wall_s) / replay.wall_s

    values = dict(report.values)
    values["bench.traced_objects"] = m.objects
    values["bench.traced_wall_s"] = m.wall_s
    values["bench.input_rss_mb"] = inputs.rss_mb
    values["bench.lag_samples"] = len(m.lags_s)
    values["bench.verify_s"] = verify_s
    values["bench.input_sha256"] = int(inputs.sha256[:12], 16)
    out = {}
    for name, entry in tables.PER_LAYER.items():
        if name in report.missing:
            out[name] = tables.MISSING
        elif name not in values:
            out[name] = 0.0  # layer not exercised by this workload
        elif entry["unit"] == "s/kobj":
            out[name] = 1e3 * values[name] / m.objects
        else:
            out[name] = values[name]
    write_trace(workload, seed, inputs, m, log, out, report.missing)
    notes = [f"missing: {', '.join(report.missing) or '(none)'}"]
    if out["obs.tracer.overhead_share"] > 0.10:
        notes.append("FLAG: tracing overhead above 10%, per-layer numbers suspect")
    return out, m, problems, notes


def write_trace(workload, seed, inputs, m, log, layers, missing) -> None:
    """``bench/out/<workload>.trace.json``: every span of the traced pass."""
    spans = [list(span) for span in log.spans]
    program = m.extra.get("program_spans")
    if program:
        # Spans the program's own tracer recorded (service_fanout): hang each
        # under the benchmark span of the chunk that contains it.
        roots = [(s[1], s[2], i) for i, s in enumerate(spans) if s[3] == -1]
        cursor = 0
        for stage, start, duration, _lane, chunk, _meta in sorted(program, key=lambda s: s[1]):
            while cursor + 1 < len(roots) and roots[cursor][1] < start:
                cursor += 1
            lo, hi, index = roots[cursor] if roots else (0.0, 0.0, -1)
            parent = index if lo <= start <= hi else -1
            spans.append([stage, start, start + duration, parent, -1 if chunk is None else chunk])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": seed,
        "params": workload.params(),
        "why": workload.why,
        "input_sha256": inputs.sha256,
        "fields": ["name", "start", "end", "parent", "chunk_id"],
        "spans": spans,
        "layers": layers,
        "missing": missing,
    }
    (OUT_DIR / f"{workload.name}.trace.json").write_text(json.dumps(record))


def run_single(args) -> int:
    workload = WORKLOADS[args.workload]
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = traced_run if args.trace else untraced_run
        values, m, problems, notes = runner(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6g} {tables.unit_of(name)}")
    for note in notes:
        print(f"# {note}")
    for problem in problems:
        print(f"# WRONG: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, m.attempted),
                "failed": m.failed,
                "metrics": {
                    name: {"value": value, "unit": tables.unit_of(name)}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The whole benchmark, repeats, comparison
# ----------------------------------------------------------------------
def host_shape() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} trace={trace} seed={seed}: no result line")
    for line in lines[:-1]:
        if line.startswith("#"):
            print(f"  {line}")
    return {
        "workload": workload, "seed": seed, "trace": trace, "exit": done.returncode,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarise(runs: list[dict]) -> dict:
    """``{workload: {metric: [value per run]}}``."""
    table: dict = {}
    for run in runs:
        for name, value in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return table


def print_summary(runs: list[dict]) -> None:
    for workload, by_metric in summarise(runs).items():
        print(f"\n== {workload}")
        for name, values in by_metric.items():
            if not any(values):
                continue  # a layer this workload does not exercise
            mid, q1, q3 = median_and_quartiles(values)
            line = f"{name:40s} {mid:>14.6g} {tables.unit_of(name):11s}"
            if len(values) > 1:
                spread = (q3 - q1) / abs(mid) if mid else 0.0
                line += f" q1={q1:.6g} q3={q3:.6g} spread={spread:.2%}"
                bound = tables.bound_of(name)
                if bound is not None:
                    line += f" bound={bound:.0%}"
                    if name != "setup_s" and spread > bound:
                        line += "  SPREAD>BOUND"
            print(line)


def run_suite(args) -> int:
    names = [args.only] if args.only else list(WORKLOADS)
    runs = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for name in names:
            for trace in (0, 1):
                print(f"-- {name} seed={seed} trace={trace}", flush=True)
                runs.append(run_child(name, seed, args.seconds, trace))
    print_summary(runs)
    record = {
        "host": host_shape(),
        "seconds": args.seconds,
        "workloads": {n: {"why": WORKLOADS[n].why, "params": WORKLOADS[n].params()} for n in names},
        "runs": runs,
        "claim": None,
    }
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    bad = [r for r in runs if not r["correct"] or r["failed"] or r["exit"]]
    print(f"\n{len(runs)} runs, {len(bad)} incorrect; results in {out}")
    print(json.dumps({"host": record["host"], "claim": None}))
    return 1 if bad else 0


def compare(path_a: str, path_b: str) -> int:
    """B against A: medians within the bounds; for equal seeds, identical
    inputs and identical count-type per-layer metrics."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    table_a, table_b = summarise(a["runs"]), summarise(b["runs"])
    disagreements = 0
    for workload in table_a:
        if workload not in table_b:
            continue
        print(f"\n== {workload}")
        for name, entry in tables.END_TO_END.items():
            values_a = table_a[workload].get(name)
            values_b = table_b[workload].get(name)
            if not values_a or not values_b:
                continue
            mid_a, q1, q3 = median_and_quartiles(values_a)
            mid_b = median_and_quartiles(values_b)[0]
            worse = (mid_b - mid_a) / mid_a
            if entry["better"] == "higher":
                worse = -worse
            spread = (q3 - q1) / abs(mid_a)
            verdict = "ok"
            if worse > entry["bound"]:
                verdict = "WORSE BEYOND BOUND"
                disagreements += 1
            elif spread > entry["bound"]:
                verdict = "unresolved (spread > bound)"
            print(
                f"{name:24s} A={mid_a:<12.6g} B={mid_b:<12.6g} worse={worse:+.2%} "
                f"spread={spread:.2%} bound={entry['bound']:.0%} {verdict}"
            )
    traced_a = {(r["workload"], r["seed"]): r["metrics"] for r in a["runs"] if r["trace"]}
    for run in b["runs"]:
        before = traced_a.get((run["workload"], run["seed"])) if run["trace"] else None
        for name, value in run["metrics"].items() if before else ():
            if tables.unit_of(name) in tables.EXACT_UNITS and before.get(name) != value:
                print(
                    f"{run['workload']} seed {run['seed']} {name}: "
                    f"A={before.get(name)} B={value} DIFFERS"
                )
                disagreements += 1
    print(f"\n{disagreements} disagreements")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=tables.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only", choices=sorted(WORKLOADS), help="suite: one workload")
    parser.add_argument("--repeat", type=int, default=1, help="suite: runs per workload")
    parser.add_argument("--out", help="suite: results file (default bench/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_single(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
