# Developer entry points for the SURGE reproduction.
#
#   make test          tier-1 test suite (pytest.ini: bench/ self-check + tests/;
#                      pure stdlib fallback works)
#   make paper         the paper-figure timing harness under benchmarks/
#                      (slow; rewrites benchmarks/results/*.txt; its Table II
#                      taxi and uk assertions are still red — ROADMAP item 1)
#   make bench         all eight benchmarks below
#   make bench-sweep   sweep-kernel microbenchmark -> BENCH_sweep.json
#   make bench-ingest  end-to-end ingestion throughput -> BENCH_ingest.json
#   make bench-service multi-query service throughput -> BENCH_service.json
#   make bench-recovery checkpoint overhead + crash recovery -> BENCH_recovery.json
#   make bench-robustness reorder-buffer overhead under disorder + adversarial
#                      (skew/churn) workloads -> BENCH_robustness.json
#   make bench-server  live-traffic latency through the TCP front end
#                      (concurrent subscriber fan-out) -> BENCH_server.json
#   make bench-obs     tracing-tier overhead on the ingestion hot path
#                      (off / disabled / enabled, bars 2% and 10%)
#                      -> BENCH_obs.json
#   make bench-remote  distributed shard tier: remote-executor throughput at
#                      1/2/4 workers (bit-identical to serial) plus a
#                      kill-a-worker failover cell -> BENCH_remote.json
#   make bench-smoke   bench-smoke-fanout, then 5 s each of the gating
#                      benchmark's exact_hotspot and exact_uniform workloads
#                      (bench/run.py; needs numpy): their verifier cross-checks
#                      the shipped default against full-snapshot sweeps on both
#                      kernels
#   make bench-smoke-fanout 5 s of its service_fanout workload (stdlib-only):
#                      the verifier recomputes the gaps/mgaps scores, checks the
#                      [(1-alpha)/4 * optimum, optimum] band and bit-identity
#                      against an independent SurgeMonitor
#                      (each bench-* above refuses to record a >20% regression;
#                       BENCH_FLAGS=--force overrides, BENCH_FLAGS=--quick
#                       runs a reduced smoke configuration)
#   make smoke-recovery SIGKILL a checkpointing `repro serve` mid-stream and
#                      assert the --resume run reproduces the uninterrupted
#                      results (the CI crash/recovery smoke)
#   make smoke-chaos   SIGKILL a checkpointing `repro serve` running under 10%
#                      disorder + poison records and assert the --resume run
#                      reproduces the uninterrupted results and IngestStats
#                      counters (the CI chaos smoke)
#   make smoke-shared  shared plan == independent-monitor oracle on a q64
#                      grid (serial + 2-shard process + checkpoint resume;
#                      the CI shared-plan smoke)
#   make smoke-overload flash-crowd a prioritised service and assert the
#                      overload tier's contract: bounded buffering, counted
#                      priority shedding, compaction after churn, and the
#                      strict policy's typed refusal (the CI overload smoke)
#   make smoke-server  serve over TCP in a subprocess, register + ingest +
#                      subscribe + scrape /metrics over the wire, SIGTERM
#                      mid-stream, then --resume re-serves the recorded
#                      endpoint and the final results must be bit-identical
#                      to an uninterrupted run (the CI network-tier smoke)
#   make smoke-obs     serve traced over TCP (--trace-dir --slow-chunk
#                      --log-json), assert the stats frame's stages section,
#                      the /metrics stage histograms, the JSON log lines,
#                      and the exported Chrome trace's lanes + span nesting
#                      (the CI observability smoke)
#   make smoke-remote  serve with the remote executor and three external
#                      `repro worker --connect` processes, SIGKILL one
#                      mid-stream, and assert the final results stay
#                      bit-identical to a serial run while the failover
#                      counters prove the kill landed (the CI distributed smoke)
#   make smoke         all seven smokes above, each under a hard `timeout`
#                      (SMOKE_TIMEOUT seconds, default 900)
#   make coverage      unit suite under pytest-cov with the pinned fail-under
#                      (requires pytest-cov; the CI coverage leg runs this)
#   make lint          byte-compile every source tree as a fast syntax/import gate
#   make loc           the four source-size numbers ROADMAP's north star and
#                      item 4 quote (`wc -l` over *.py; informational, no gate)
#
# The numpy sweep backend is optional: `pip install .[fast]` enables it, and
# everything degrades to the pure-Python kernel without it.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
BENCH_FLAGS ?=
# Hard wall-clock cap per smoke under `make smoke`: a hung victim or resume
# must fail the build, not wedge it.
SMOKE_TIMEOUT ?= 900
# Line-coverage floor for `make coverage`. Baseline measured 2026-07-30 at
# 94.9% over src/repro (full tests/ suite, stdlib line tracer; worker-process
# code runs uncounted, as it does under un-configured pytest-cov), pinned a
# few points under so the floor only moves up deliberately.
COVERAGE_MIN ?= 92

.PHONY: test paper bench bench-sweep bench-ingest bench-service bench-recovery \
	bench-robustness bench-server bench-obs bench-remote bench-smoke \
	bench-smoke-fanout smoke \
	smoke-recovery smoke-shared smoke-chaos smoke-overload smoke-server smoke-obs \
	smoke-remote coverage lint loc

test:
	$(PYTHON) -m pytest -x -q

paper:
	$(PYTHON) -m pytest benchmarks

bench: bench-sweep bench-ingest bench-service bench-recovery bench-robustness \
	bench-server bench-obs bench-remote

bench-sweep:
	$(PYTHON) benchmarks/bench_sweep.py $(BENCH_FLAGS)

bench-ingest:
	$(PYTHON) benchmarks/bench_ingest.py $(BENCH_FLAGS)

bench-service:
	$(PYTHON) benchmarks/bench_service.py $(BENCH_FLAGS)

bench-recovery:
	$(PYTHON) benchmarks/bench_recovery.py $(BENCH_FLAGS)

bench-robustness:
	$(PYTHON) benchmarks/bench_robustness.py $(BENCH_FLAGS)

bench-server:
	$(PYTHON) benchmarks/bench_server.py $(BENCH_FLAGS)

bench-obs:
	$(PYTHON) benchmarks/bench_obs.py $(BENCH_FLAGS)

bench-remote:
	$(PYTHON) benchmarks/bench_remote.py $(BENCH_FLAGS)

bench-smoke: bench-smoke-fanout
	$(PYTHON) bench/run.py --workload exact_hotspot --seed 7 --seconds 5 --trace 0
	$(PYTHON) bench/run.py --workload exact_uniform --seed 7 --seconds 5 --trace 0

bench-smoke-fanout:
	$(PYTHON) bench/run.py --workload service_fanout --seed 7 --seconds 5 --trace 0

smoke:
	timeout $(SMOKE_TIMEOUT) $(PYTHON) scripts/recovery_smoke.py
	timeout $(SMOKE_TIMEOUT) $(PYTHON) scripts/shared_plan_smoke.py
	timeout $(SMOKE_TIMEOUT) $(PYTHON) scripts/chaos_smoke.py
	timeout $(SMOKE_TIMEOUT) $(PYTHON) scripts/overload_smoke.py
	timeout $(SMOKE_TIMEOUT) $(PYTHON) scripts/server_smoke.py
	timeout $(SMOKE_TIMEOUT) $(PYTHON) scripts/obs_smoke.py
	timeout $(SMOKE_TIMEOUT) $(PYTHON) scripts/remote_smoke.py

smoke-recovery:
	$(PYTHON) scripts/recovery_smoke.py

smoke-shared:
	$(PYTHON) scripts/shared_plan_smoke.py

smoke-chaos:
	$(PYTHON) scripts/chaos_smoke.py

smoke-overload:
	$(PYTHON) scripts/overload_smoke.py

smoke-server:
	$(PYTHON) scripts/server_smoke.py

smoke-obs:
	$(PYTHON) scripts/obs_smoke.py

smoke-remote:
	$(PYTHON) scripts/remote_smoke.py

coverage:
	$(PYTHON) -m pytest tests -q --cov=repro --cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COVERAGE_MIN)

lint:
	$(PYTHON) -m compileall -q src/repro tests benchmarks examples scripts

loc:
	@printf '%6d  src/ total\n' $$(find src -name '*.py' | xargs cat | wc -l)
	@printf '%6d  service/ + distributed/ + server/ + cli.py\n' $$(find \
		src/repro/service src/repro/distributed src/repro/server -name '*.py' \
		| xargs cat src/repro/cli.py | wc -l)
	@printf '%6d  service/service.py\n' $$(wc -l < src/repro/service/service.py)
	@printf '%6d  cli.py\n' $$(wc -l < src/repro/cli.py)
