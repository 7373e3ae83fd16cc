# Liquid Metal reproduction — common development targets.

PYTHON ?= python

.PHONY: test tree-before bench bench-smoke examples trace-smoke \
	fault-smoke profile-smoke health-smoke harvest-smoke serve-smoke \
	recover-smoke perf-smoke perf-compare perf-pairs all clean

# A green run leaves the tree as it found it: `git status` is recorded
# before the first smoke target runs and compared after pytest, so a
# target or test that starts rewriting a tracked file (or dropping an
# unignored one) fails the build and prints the difference. Outside a
# git checkout both readings are empty and the check passes.
TREE_BEFORE = benchmarks/out/.tree-before

# pytest runs pyproject's testpaths (tests/ and benchmarks/) under its
# "not slow" filter: the tier-1 set, Fig. 4 VCD golden included. The
# examples run first; fpga_waveform.py rewrites the tracked
# examples/bitflip.vcd, so the tree check catches a drift there.
test: tree-before examples trace-smoke fault-smoke profile-smoke \
		health-smoke harvest-smoke serve-smoke recover-smoke bench-smoke \
		perf-smoke
	$(PYTHON) -m pytest
	@git status --porcelain 2>/dev/null | diff $(TREE_BEFORE) - || \
		{ echo "make test: the run changed the working tree (diff above)"; \
		  exit 1; }

tree-before:
	@mkdir -p benchmarks/out
	@git status --porcelain > $(TREE_BEFORE) 2>/dev/null || true

# The -m "" overrides pyproject's default "not slow" filter so the
# full-scale benchmark variants run too.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -m ""

# Fast marshaling/fusion/cache/recovery benchmarks: produce
# benchmarks/out/BENCH_marshal.json (>=2x batched throughput bar,
# docs/PERFORMANCE.md), benchmarks/out/BENCH_fusion.json (>=2x
# fused device-path speedup with strictly fewer boundary crossings,
# docs/FUSION.md), and benchmarks/out/BENCH_recovery.json (<10%
# modeled checkpoint overhead at the default cadence,
# docs/RECOVERY.md) without the slow variants.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_bench_marshal_batch.py \
		benchmarks/test_bench_fusion.py \
		benchmarks/test_bench_artifact_cache.py \
		benchmarks/test_bench_recovery.py \
		--benchmark-disable -q

# The wall-clock benchmark (perf/README.md, docs/PERFORMANCE.md
# "Wall-clock"): all six workloads, both passes, a few ops each, every
# output checked against its reference and every share/placement guard
# of the traced pass applied; < 30 s. Exit status is the verdict.
perf-smoke:
	$(PYTHON) perf/run.py --smoke > /dev/null

# Verdict per (workload, end-to-end metric) between two sets of
# perf/run.py results, e.g.
#   make perf-compare BASE=perf/out/base NEW=perf/out/new
# (each a result file, a directory of them, or a comma list).
perf-compare:
	@test -n "$(BASE)" -a -n "$(NEW)" || \
		{ echo "usage: make perf-compare BASE=<results> NEW=<results>"; exit 2; }
	$(PYTHON) perf/compare.py $(BASE) $(NEW)

# docs/PERFORMANCE.md's paired protocol between two trees: one
# perf/run.py run of each per seed, alternating which goes first, then
# per metric q1/median/q3 of each side, the ratio, the pairs the new
# tree read lower and perf/compare.py's verdict, e.g.
#   make perf-pairs BASE=../parent NEW=. WORKLOAD=service_jobs SEEDS=2801-2810
# Results land in benchmarks/out/perf_pairs/<workload>/.
perf-pairs:
	@test -n "$(BASE)" -a -n "$(NEW)" -a -n "$(WORKLOAD)" -a -n "$(SEEDS)" || \
		{ echo "usage: make perf-pairs BASE=<tree> NEW=<tree> WORKLOAD=<w> SEEDS=<a>-<b>"; exit 2; }
	$(PYTHON) tools/perf_pairs.py --base $(BASE) --new $(NEW) \
		--workload $(WORKLOAD) --seeds $(SEEDS)

# AOT-harvest the whole app suite into a scratch cache, prove every
# backend warm-starts (the harvest command exits non-zero otherwise),
# then integrity-check every stored entry, print the stats summary and
# require one program index entry per suite app (docs/CACHING.md).
harvest-smoke:
	mkdir -p benchmarks/out
	rm -rf benchmarks/out/cache_smoke
	PYTHONPATH=src $(PYTHON) -m repro harvest \
		--cache-dir benchmarks/out/cache_smoke \
		-o benchmarks/out/harvest_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro cache verify \
		--cache-dir benchmarks/out/cache_smoke
	PYTHONPATH=src $(PYTHON) -m repro cache stats \
		--cache-dir benchmarks/out/cache_smoke
	PYTHONPATH=src $(PYTHON) -m repro cache stats --json \
		--cache-dir benchmarks/out/cache_smoke | $(PYTHON) -c "\
	import json, sys; n = json.load(sys.stdin)['programs']; \
	sys.exit(0 if n == 17 else f'harvest-smoke: {n} indexed programs, expected 17')"

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/gpu_option_pricing.py
	$(PYTHON) examples/fpga_waveform.py
	$(PYTHON) examples/heterogeneous_pipeline.py
	$(PYTHON) examples/adaptive_migration.py
	$(PYTHON) examples/reproduce_speedups.py

# Export a Chrome trace end-to-end and re-validate it against the
# trace-event schema (the `python -m repro trace` command already
# validates in-process; the second load catches serialization bugs).
trace-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro trace mandelbrot \
		-o benchmarks/out/trace_smoke.json \
		--jsonl benchmarks/out/trace_smoke.jsonl
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.schema import load; from repro.obs.export import TRACE_SPEC; \
	load('benchmarks/out/trace_smoke.json', TRACE_SPEC, 'trace'); \
	print('trace-smoke: benchmarks/out/trace_smoke.json valid')"

# Profile a GPU map app and a streaming graph app end-to-end, writing
# the machine-readable reports, then re-validate both files against
# the repro.profile/1 schema (docs/PROFILING.md). Catches regressions
# in the metrics registry, the profiler, and the report serializer.
profile-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro profile mandelbrot --json \
		-o benchmarks/out/profile_smoke_mandelbrot.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro profile bitflip \
		--scheduler threaded --json \
		-o benchmarks/out/profile_smoke_bitflip.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.schema import load; from repro.obs.profile import PROFILE_SPEC; \
	load('benchmarks/out/profile_smoke_mandelbrot.json', PROFILE_SPEC, 'profile'); \
	load('benchmarks/out/profile_smoke_bitflip.json', PROFILE_SPEC, 'profile'); \
	print('profile-smoke: both profile reports valid')"

# Transient-window recovery end-to-end: the first device call fails, so
# the GPU span is demoted, shadow-probed after the breaker cools down,
# and re-promoted within the same run — with output identical to a
# cpu-only run — then the emitted report is re-validated against the
# repro.health/1 schema (docs/RESILIENCE.md).
health-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro faults gray_pipeline \
		--plan examples/fault_plans/transient_gpu_window.json \
		--cooldown-us 1 --max-attempts 1 \
		--scheduler sequential --batch-size 16 \
		--require-repromotions 1 \
		-o benchmarks/out/health_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.schema import load; from repro.runtime import HEALTH_SPEC; \
	load('benchmarks/out/health_smoke.json', HEALTH_SPEC, 'health report'); \
	print('health-smoke: benchmarks/out/health_smoke.json valid')"

# Multi-tenant co-execution service smoke: 3 tenants x 4 jobs through
# the long-lived service (admission control, device-pool leasing,
# shared breakers), every job verified bit-identical to a standalone
# run, report validated as repro.service/1 (docs/SERVICE.md).
serve-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro serve \
		--tenants 3 --jobs-per-tenant 4 --scheduler sequential \
		--verify -o benchmarks/out/serve_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.schema import load; from repro.service import SERVICE_SPEC; \
	load('benchmarks/out/serve_smoke.json', SERVICE_SPEC, 'service report'); \
	print('serve-smoke: benchmarks/out/serve_smoke.json valid')"

# Crash-consistent recovery smoke: submit 6 jobs against a journaled
# service, crash at a seeded device consult, restart-and-recover in a
# loop until convergence, verify every job's digest is bit-identical
# to an uninterrupted baseline, then re-validate the emitted report
# against the repro.recover/1 schema (docs/RECOVERY.md).
recover-smoke:
	mkdir -p benchmarks/out
	rm -rf benchmarks/out/recover_smoke_journal
	PYTHONPATH=src $(PYTHON) -m repro recover \
		--journal-dir benchmarks/out/recover_smoke_journal \
		--jobs 6 --scheduler sequential --seed 1 --crash-call 3 \
		-o benchmarks/out/recover_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.schema import load; from repro.service import RECOVER_SPEC; \
	load('benchmarks/out/recover_smoke.json', RECOVER_SPEC, 'recovery report'); \
	print('recover-smoke: benchmarks/out/recover_smoke.json valid')"
	@test "$$(ls -A benchmarks/out/recover_smoke_journal)" = journal.rj || \
		{ echo "recover-smoke: the journal directory must hold only" \
		  "journal.rj:"; ls -AR benchmarks/out/recover_smoke_journal; \
		  exit 1; }

# Kill every accelerator call against a GPU map app and an FPGA stream
# app: both runs must still produce output identical to a cpu-only run,
# with at least one recorded demotion to bytecode (docs/RESILIENCE.md).
fault-smoke:
	PYTHONPATH=src $(PYTHON) -m repro faults mandelbrot \
		--plan examples/fault_plans/kill_devices.json \
		--require-demotions 1
	PYTHONPATH=src $(PYTHON) -m repro faults bitflip \
		--plan examples/fault_plans/kill_devices.json \
		--require-demotions 1

all: test bench

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/out
	find . -name __pycache__ -type d -exec rm -rf {} +
