GO ?= go

.PHONY: build test vet race bench bench-json bench-gate smoke trace-smoke nested-smoke monitor-smoke search-smoke profile-smoke sobol-smoke variability-smoke verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race exercises the concurrency-sensitive packages — the hot-team region
# dispatch, the lock-free construct ring, the wait-policy barrier and lock
# park/wake paths, the per-thread trace rings, the metrics registry, the
# parallel sweep worker pool, the pooled influence-heatmap fits, the
# concurrent forest fits and the measurement harness — under the race
# detector. Keep this green before touching openmp, internal/obs,
# internal/core, internal/ml or internal/measure.
race:
	$(GO) vet ./... && $(GO) test -race -count=1 ./openmp/... ./internal/core ./internal/obs ./internal/ml ./internal/measure

# bench runs the runtime overhead microbenchmarks with settings pinned for
# benchstat: save a baseline with `make bench > before.txt`, make changes,
# `make bench > after.txt`, then `benchstat before.txt after.txt`.
# BENCH selects the benchmarks (regexp); default covers the EPCC-style
# overhead suite plus the whole-operation benchmarks it complements.
BENCH ?= .
bench:
	$(GO) test ./openmp -run '^$$' -bench '$(BENCH)' -benchtime=300ms -count=5 -benchmem

# bench-json refreshes the committed BENCH_openmp.json baseline: three
# repetitions of the suite converted to JSON via cmd/benchjson (see
# `go doc ./cmd/benchjson`). Re-run and commit the result whenever a change
# legitimately moves the benchmarks; bench-gate compares against it.
bench-json:
	$(GO) test ./openmp -run '^$$' -bench '$(BENCH)' -benchtime=100ms -count=3 -benchmem \
		| $(GO) run ./cmd/benchjson -o BENCH_openmp.json

# bench-gate is the perf-regression gate: it re-runs the suite with the
# bench-json settings and compares against the committed baseline with
# `ompanalyze -compare` in bench mode — median ns/op per benchmark within
# 20%, allocs/op exactly no worse (the owner-path 0 allocs/op pin has no
# tolerance). Exits nonzero on regression. Timing on shared hardware is too
# noisy for the default `make verify`; run it when touching the runtime's
# hot paths (openmp/task.go, construct.go, team.go, runtime.go).
GATE_DIR := $(or $(TMPDIR),/tmp)/omptune-bench-gate
bench-gate: build
	rm -rf $(GATE_DIR) && mkdir -p $(GATE_DIR)
	$(GO) test ./openmp -run '^$$' -bench '$(BENCH)' -benchtime=100ms -count=3 -benchmem \
		| $(GO) run ./cmd/benchjson -o $(GATE_DIR)/current.json
	$(GO) run ./cmd/ompanalyze -compare BENCH_openmp.json $(GATE_DIR)/current.json
	rm -rf $(GATE_DIR)

# smoke runs a real-execution micro-campaign through the measured backend:
# one app per suite (NPB/BOTS/proxy) on one arch, a tiny slice of the space,
# two timed repetitions. It asserts the campaign completes, resumes
# byte-identically from its own checkpoint, and records only positive
# measured runtimes (CSV columns 14-17 are runtime_0..runtime_3). Measured
# campaigns carry series provenance, so the CSV is the V4 schema: column 21
# is source and the trailing reps/cov/ci columns must record the real
# repetition count (2 here — fixed -measure-reps).
SMOKE_DIR := $(or $(TMPDIR),/tmp)/omptune-smoke
SMOKE_SWEEP = $(GO) run ./cmd/ompsweep -backend measured -arch a64fx \
	-apps EP,Nqueens,XSbench -frac 0.001 -measure-reps 2 -checkpoint $(SMOKE_DIR)/ck
smoke: build
	rm -rf $(SMOKE_DIR)
	$(SMOKE_SWEEP) -o $(SMOKE_DIR)/smoke.csv
	$(SMOKE_SWEEP) -o $(SMOKE_DIR)/resumed.csv
	cmp $(SMOKE_DIR)/smoke.csv $(SMOKE_DIR)/resumed.csv
	awk -F, 'NR == 1 { if ($$21 != "source" || $$NF != "ci") { print "smoke: want source col 21 and trailing reps/cov/ci, got " $$21 "/" $$NF; bad = 1; exit 1 } next } \
		{ if ($$21 != "measured") { print "smoke: unmeasured row: " $$0; bad = 1; exit 1 } \
		  if ($$(NF-2) + 0 != 2) { print "smoke: reps column " $$(NF-2) ", want 2: " $$0; bad = 1; exit 1 } \
		  for (i = 14; i <= 17; i++) if ($$i + 0 <= 0) { print "smoke: non-positive runtime: " $$0; bad = 1; exit 1 } } \
		END { if (bad) exit 1; if (NR < 2) { print "smoke: empty campaign"; exit 1 } print "smoke: " NR - 1 " measured samples OK" }' \
		$(SMOKE_DIR)/smoke.csv
	rm -rf $(SMOKE_DIR)

# trace-smoke runs a real traced execution end to end: Nqueens (BOTS-style
# task parallelism) on four threads with OMPT-style tracing enabled. omprun
# self-validates the Chrome JSON (shape, per-thread B/E nesting, timestamp
# monotonicity) before writing it and exits nonzero otherwise; the awk pass
# then asserts the derived per-region summary reports live metrics — regions
# observed, nonzero stolen tasks, nonzero barrier wait, no dropped events.
TRACE_DIR := $(or $(TMPDIR),/tmp)/omptune-trace-smoke
trace-smoke: build
	rm -rf $(TRACE_DIR) && mkdir -p $(TRACE_DIR)
	$(GO) run ./cmd/omprun -app Nqueens -scale 0.5 \
		-set "OMP_NUM_THREADS=4,KMP_BLOCKTIME=0" -warmup 1 -reps 2 \
		-trace $(TRACE_DIR)/trace.json -trace-summary 2> $(TRACE_DIR)/summary.txt
	grep -q '"traceEvents"' $(TRACE_DIR)/trace.json
	awk '/^summary: / { found = 1; \
		for (i = 2; i <= NF; i++) { split($$i, kv, "="); v[kv[1]] = kv[2] } \
		if (v["regions"] + 0 <= 0) { print "trace-smoke: no regions"; exit 1 } \
		if (v["dropped"] + 0 != 0) { print "trace-smoke: dropped events"; exit 1 } \
		if (v["tasks_stolen"] + 0 <= 0) { print "trace-smoke: no steals"; exit 1 } \
		if (v["barrier_wait_ns"] + 0 <= 0) { print "trace-smoke: no barrier wait"; exit 1 } \
		print "trace-smoke: " $$0 } \
		END { if (!found) { print "trace-smoke: summary line missing"; exit 1 } }' \
		$(TRACE_DIR)/summary.txt
	rm -rf $(TRACE_DIR)

# nested-smoke runs a real nested-parallel application (blocked LU with a
# depth-2 region per trailing update) under a per-level thread list and
# asserts, from the machine-readable JSON trace summary
# (-trace-summary-json), that nesting actually happened: two active levels,
# nested regions observed, the configured widths at each level (4 outer,
# 2 inner), and no dropped events. The warmup run matters — it creates the
# inner teams before tracing starts, so their threads have rings when the
# timed repetitions are traced. The awk gate keys the per-level checks off
# the trailing "levels" array (top-level "level"/"max_threads" pairs also
# appear inside region rows, so the array start is the state switch).
NESTED_DIR := $(or $(TMPDIR),/tmp)/omptune-nested-smoke
nested-smoke: build
	rm -rf $(NESTED_DIR) && mkdir -p $(NESTED_DIR)
	$(GO) run ./cmd/omprun -app LUNest -scale 0.5 \
		-set "OMP_NUM_THREADS=4,2,OMP_MAX_ACTIVE_LEVELS=2,KMP_BLOCKTIME=0" \
		-warmup 1 -reps 2 -trace-summary-json 2> $(NESTED_DIR)/summary.json
	awk '/"dropped":/ { gsub(/[^0-9]/, "", $$2); dropped = $$2; seen = 1 } \
		/"nested_regions":/ { gsub(/[^0-9]/, "", $$2); nested = $$2 } \
		/"levels": \[/ { inlev = 1 } \
		inlev && /"level":/ { gsub(/[^0-9]/, "", $$2); lvl = $$2; nlev++ } \
		inlev && /"max_threads":/ { gsub(/[^0-9]/, "", $$2); thr[lvl] = $$2 } \
		END { \
		if (!seen) { print "nested-smoke: summary JSON missing"; exit 1 } \
		if (dropped + 0 != 0) { print "nested-smoke: dropped events"; exit 1 } \
		if (nested + 0 <= 0) { print "nested-smoke: no nested regions"; exit 1 } \
		if (nlev + 0 < 2) { print "nested-smoke: levels=" nlev ", want >= 2"; exit 1 } \
		if (thr[0] + 0 != 4) { print "nested-smoke: level0 threads=" thr[0] ", want 4"; exit 1 } \
		if (thr[1] + 0 != 2) { print "nested-smoke: level1 threads=" thr[1] ", want 2"; exit 1 } \
		print "nested-smoke: levels=" nlev " nested_regions=" nested \
			" level0_threads=" thr[0] " level1_threads=" thr[1] " dropped=" dropped " OK" }' \
		$(NESTED_DIR)/summary.json
	rm -rf $(NESTED_DIR)

# monitor-smoke proves the live monitor end to end on a real measured
# micro-campaign: ompsweep runs with -serve on an ephemeral port, the bound
# address is scraped from its stderr line, and while the server lingers the
# target polls /api/status to "done", then asserts /healthz, a well-formed
# Prometheus exposition with nonzero campaign gauges and runtime-latency
# histogram counts, and a status payload carrying the heatmap cells and
# latency tiles. The final TERM cuts the linger short (graceful shutdown
# path), and the campaign must still exit 0 with a non-empty CSV.
MONITOR_DIR := $(or $(TMPDIR),/tmp)/omptune-monitor-smoke
monitor-smoke: build
	rm -rf $(MONITOR_DIR) && mkdir -p $(MONITOR_DIR)
	$(GO) build -o $(MONITOR_DIR)/ompsweep ./cmd/ompsweep
	set -e; \
	$(MONITOR_DIR)/ompsweep -backend measured -arch a64fx -apps Nqueens \
		-frac 0.002 -measure-reps 2 -serve 127.0.0.1:0 -serve-linger 60s \
		-o $(MONITOR_DIR)/smoke.csv 2> $(MONITOR_DIR)/stderr.txt & \
	pid=$$!; \
	addr=; for i in $$(seq 1 300); do \
		addr=$$(sed -n 's#^ompsweep: monitor: serving on http://##p' $(MONITOR_DIR)/stderr.txt); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "monitor-smoke: no serving line"; cat $(MONITOR_DIR)/stderr.txt; kill $$pid 2>/dev/null; exit 1; }; \
	state=; for i in $$(seq 1 600); do \
		state=$$(curl -sf "http://$$addr/api/status" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p'); \
		[ "$$state" = done ] && break; sleep 0.2; \
	done; \
	[ "$$state" = done ] || { echo "monitor-smoke: state=$$state, want done"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/healthz" | grep -qx ok; \
	curl -sf "http://$$addr/metrics" > $(MONITOR_DIR)/metrics.txt; \
	curl -sf "http://$$addr/api/status" > $(MONITOR_DIR)/status.json; \
	kill $$pid; wait $$pid
	grep -q '"state":"done"' $(MONITOR_DIR)/status.json
	grep -q '"name":"region fork-join"' $(MONITOR_DIR)/status.json
	grep -q '"arch":"a64fx"' $(MONITOR_DIR)/status.json
	awk '/^#/ { next } \
		!/^[A-Za-z_][A-Za-z0-9_]*(\{[^}]*\})? [-+0-9.eE]+$$/ { print "monitor-smoke: malformed exposition line: " $$0; exit 1 } \
		/^omptune_sweep_settings_planned / { planned = $$2 } \
		/^omptune_sweep_samples_done_total/ { samples += $$NF } \
		/^omptune_runtime_region_seconds_count/ { regions = $$NF } \
		/^omptune_sweep_setting_eval_seconds_count/ { evals += $$NF } \
		END { \
			if (planned + 0 <= 0) { print "monitor-smoke: settings_planned gauge is zero"; exit 1 } \
			if (samples + 0 <= 0) { print "monitor-smoke: samples_done counter is zero"; exit 1 } \
			if (regions + 0 <= 0) { print "monitor-smoke: region histogram empty"; exit 1 } \
			if (evals + 0 <= 0) { print "monitor-smoke: eval histogram empty"; exit 1 } \
			print "monitor-smoke: " planned " settings planned, " samples " samples, " regions " regions timed OK" }' \
		$(MONITOR_DIR)/metrics.txt
	awk -F, 'END { if (NR < 2) { print "monitor-smoke: empty campaign CSV"; exit 1 } }' $(MONITOR_DIR)/smoke.csv
	rm -rf $(MONITOR_DIR)

# search-smoke proves the budgeted Searcher seam end to end on the analytic
# backend: a full (deterministic) Nqueens sweep on a64fx is the ground truth,
# then the annealing and surrogate strategies each get a 300-evaluation
# budget — 6.5% of the 4608-configuration space — against the same model.
# `ompanalyze -searchreport` joins their shared telemetry stream to the
# sweep, and the awk gate asserts both strategies recover at least 90% of
# the full sweep's best speedup while spending at most 10% of the space
# (columns: evalfrac = $$7, fraction = $$10).
SEARCH_DIR := $(or $(TMPDIR),/tmp)/omptune-search-smoke
search-smoke: build
	rm -rf $(SEARCH_DIR) && mkdir -p $(SEARCH_DIR)
	$(GO) run ./cmd/ompsweep -arch a64fx -apps Nqueens -frac 1 -o $(SEARCH_DIR)/sweep.csv
	$(GO) run ./cmd/ompsearch -app Nqueens -arch a64fx -strategy anneal \
		-budget 300 -seed 1 -telemetry $(SEARCH_DIR)/search.jsonl > /dev/null
	$(GO) run ./cmd/ompsearch -app Nqueens -arch a64fx -strategy surrogate \
		-budget 300 -seed 1 -telemetry $(SEARCH_DIR)/search.jsonl > /dev/null
	$(GO) run ./cmd/ompanalyze -data $(SEARCH_DIR)/sweep.csv \
		-searchreport $(SEARCH_DIR)/search.jsonl | tee $(SEARCH_DIR)/report.txt
	awk '$$4 == "anneal" || $$4 == "surrogate" { seen++; \
		if ($$7 + 0 > 0.10) { print "search-smoke: " $$4 " spent " $$7 " of the space, want <= 0.10"; exit 1 } \
		if ($$10 + 0 < 0.90) { print "search-smoke: " $$4 " reached " $$10 " of sweep best, want >= 0.90"; exit 1 } } \
		END { if (seen != 2) { print "search-smoke: expected 2 strategy rows, saw " seen; exit 1 } \
		print "search-smoke: both strategies >= 90% of sweep best within <= 10% of the space OK" }' \
		$(SEARCH_DIR)/report.txt
	rm -rf $(SEARCH_DIR)

# profile-smoke proves the per-region efficiency profiler end to end on a
# real kernel execution: Nqueens on 4 threads, profiled over 2 timed reps,
# exporting both the JSON report and the folded flamegraph stacks. The gates
# assert the profiler attributed real time (a region row with positive
# wall_ns), observed genuine barrier waiting (nonzero barrier_wait_share —
# the irregular Nqueens task tree guarantees arrival spread on 4 threads),
# dropped nothing, and emitted well-formed folded lines
# (`omp;<frame>@L<lvl>;<leaf> <usec>`, with a compute leaf present).
PROFILE_DIR := $(or $(TMPDIR),/tmp)/omptune-profile-smoke
profile-smoke: build
	rm -rf $(PROFILE_DIR) && mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/omprun -app Nqueens -scale 0.5 -set "OMP_NUM_THREADS=4" \
		-warmup 1 -reps 2 -profile-json $(PROFILE_DIR)/profile.json \
		-profile-folded $(PROFILE_DIR)/profile.folded 2> $(PROFILE_DIR)/log.txt
	awk '/"wall_ns":/ { gsub(/[^0-9]/, "", $$2); if ($$2 + 0 > 0) wall = 1 } \
		/"barrier_wait_share":/ { gsub(/[^0-9.eE+-]/, "", $$2); if ($$2 + 0 > 0) bar = 1 } \
		/"dropped":/ { gsub(/[^0-9]/, "", $$2); dropped = $$2 } \
		END { if (!wall) { print "profile-smoke: no region with positive wall_ns"; exit 1 } \
		if (!bar) { print "profile-smoke: barrier_wait_share is zero everywhere"; exit 1 } \
		if (dropped + 0 != 0) { print "profile-smoke: dropped regions"; exit 1 } \
		print "profile-smoke: JSON report OK" }' $(PROFILE_DIR)/profile.json
	awk '!/^omp;[^ ]+ [0-9]+$$/ { print "profile-smoke: malformed folded line: " $$0; bad = 1; exit 1 } \
		/;compute [0-9]+$$/ { compute = 1 } \
		END { if (bad) exit 1; \
		if (NR == 0) { print "profile-smoke: folded output empty"; exit 1 } \
		if (!compute) { print "profile-smoke: no compute leaf in folded stacks"; exit 1 } \
		print "profile-smoke: " NR " folded stack lines OK" }' $(PROFILE_DIR)/profile.folded
	rm -rf $(PROFILE_DIR)

# sobol-smoke proves the variance-based sensitivity path end to end on the
# deterministic analytic backend: a full LU sweep on a64fx (LU has the
# highest residual imbalance of the modeled apps, so OMP_SCHEDULE genuinely
# moves runtime), then `ompanalyze -sobol` Saltelli-samples the recorded
# space. The gate reads the pooled ranking and asserts the schedule variable
# carries strictly more total-order variance than KMP_ALIGN_ALLOC, which the
# model treats as inert (its Jansen ST is exactly zero on a full-factorial
# sweep), and that no Saltelli point needed group-mean substitution.
SOBOL_DIR := $(or $(TMPDIR),/tmp)/omptune-sobol-smoke
sobol-smoke: build
	rm -rf $(SOBOL_DIR) && mkdir -p $(SOBOL_DIR)
	$(GO) run ./cmd/ompsweep -arch a64fx -apps LU -frac 1 -o $(SOBOL_DIR)/sweep.csv
	$(GO) run ./cmd/ompanalyze -data $(SOBOL_DIR)/sweep.csv \
		-sobol -sobol-samples 256 -sobol-seed 1 | tee $(SOBOL_DIR)/report.txt
	awk '/misses/ { if ($$0 !~ / misses 0\//) { print "sobol-smoke: Saltelli points missing from full sweep"; exit 1 } } \
		/^pooled ranking/ { pooled = 1 } \
		pooled && $$1 == "OMP_SCHEDULE" { sched = $$3 } \
		pooled && $$1 == "KMP_ALIGN_ALLOC" { align = $$3 } \
		END { if (sched == "") { print "sobol-smoke: no pooled OMP_SCHEDULE row"; exit 1 } \
		if (sched + 0 <= 0) { print "sobol-smoke: OMP_SCHEDULE total-order index " sched " not positive"; exit 1 } \
		if (sched + 0 <= align + 0) { print "sobol-smoke: OMP_SCHEDULE ST " sched " not above inert KMP_ALIGN_ALLOC " align; exit 1 } \
		print "sobol-smoke: OMP_SCHEDULE ST " sched " > inert KMP_ALIGN_ALLOC ST " align " OK" }' \
		$(SOBOL_DIR)/report.txt
	rm -rf $(SOBOL_DIR)

# variability-smoke proves the variability observatory end to end on a real
# adaptive measured micro-campaign: EP on a64fx with an 8% CoV target and two
# workers (more would time series against each other's load and inflate
# every CoV past the target), served live. The rep ceiling is pinned to the
# 4-rep fixed baseline so the savings assertion is structural — quiet series
# stop at 2, noisy ones cost no more than fixed — and the gate is not
# hostage to the host's noise level (sub-millisecond kernels on a loaded
# machine can exceed any CoV target). The gates assert the stopping rule
# genuinely adapted (the CSV reps column takes at least two distinct values
# in [2, 4]), the adaptive policy spent fewer total repetitions than the
# fixed baseline (the acceptance criterion of the observatory), `ompanalyze
# -variability` renders a well-formed table over the provenance, and the
# live monitor served the noise cells at /api/variability while the campaign
# ran.
VARIABILITY_DIR := $(or $(TMPDIR),/tmp)/omptune-variability-smoke
variability-smoke: build
	rm -rf $(VARIABILITY_DIR) && mkdir -p $(VARIABILITY_DIR)
	$(GO) build -o $(VARIABILITY_DIR)/ompsweep ./cmd/ompsweep
	set -e; \
	$(VARIABILITY_DIR)/ompsweep -backend measured -arch a64fx -apps EP \
		-frac 0.02 -measure-warmup 1 -adaptive-cov 0.08 -adaptive-max 4 -workers 2 \
		-serve 127.0.0.1:0 -serve-linger 60s \
		-o $(VARIABILITY_DIR)/adaptive.csv 2> $(VARIABILITY_DIR)/stderr.txt & \
	pid=$$!; \
	addr=; for i in $$(seq 1 300); do \
		addr=$$(sed -n 's#^ompsweep: monitor: serving on http://##p' $(VARIABILITY_DIR)/stderr.txt); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "variability-smoke: no serving line"; cat $(VARIABILITY_DIR)/stderr.txt; kill $$pid 2>/dev/null; exit 1; }; \
	state=; for i in $$(seq 1 600); do \
		state=$$(curl -sf "http://$$addr/api/status" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p'); \
		[ "$$state" = done ] && break; sleep 0.2; \
	done; \
	[ "$$state" = done ] || { echo "variability-smoke: state=$$state, want done"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/api/variability" > $(VARIABILITY_DIR)/variability.json; \
	kill $$pid; wait $$pid
	grep -q '"arch":"a64fx"' $(VARIABILITY_DIR)/variability.json
	grep -q '"reps_run":' $(VARIABILITY_DIR)/variability.json
	grep -q '"cov_p50":' $(VARIABILITY_DIR)/variability.json
	awk -F, 'NR == 1 { if ($$NF != "ci") { print "variability-smoke: no trailing ci column"; exit 1 } next } \
		{ r = $$(NF-2) + 0; reps[r] = 1; run += r; fixed += 4; \
		  if (r < 2 || r > 4) { print "variability-smoke: reps " r " outside [2, 4]: " $$0; exit 1 } \
		  if ($$(NF-1) + 0 < 0 || $$NF + 0 < 0) { print "variability-smoke: negative noise estimate: " $$0; exit 1 } } \
		END { n = 0; for (r in reps) n++; \
		if (NR < 2) { print "variability-smoke: empty campaign"; exit 1 } \
		if (n < 2) { print "variability-smoke: stopping rule never adapted (all series ran " run / (NR - 1) " reps)"; exit 1 } \
		if (run >= fixed) { print "variability-smoke: adaptive spent " run " reps vs " fixed " fixed — no savings"; exit 1 } \
		print "variability-smoke: " NR - 1 " series, " n " distinct rep counts, " run " reps vs " fixed " fixed OK" }' \
		$(VARIABILITY_DIR)/adaptive.csv
	$(GO) run ./cmd/ompanalyze -data $(VARIABILITY_DIR)/adaptive.csv -variability \
		| tee $(VARIABILITY_DIR)/report.txt
	awk '/^arch / { header = 1 } \
		/^adaptive measurement: / { summary = 1; \
			if ($$3 + 0 <= 0 || $$7 + 0 <= 0) { print "variability-smoke: degenerate summary: " $$0; exit 1 } } \
		END { if (!header) { print "variability-smoke: report table header missing"; exit 1 } \
		if (!summary) { print "variability-smoke: report summary line missing"; exit 1 } \
		print "variability-smoke: observatory report OK" }' \
		$(VARIABILITY_DIR)/report.txt
	rm -rf $(VARIABILITY_DIR)

# verify is the pre-merge gate. bench-gate is deliberately not in it (timing
# noise would make the gate flaky on shared machines) — run `make bench-gate`
# by hand when a change touches the runtime hot paths.
verify: race test smoke trace-smoke nested-smoke monitor-smoke search-smoke profile-smoke sobol-smoke variability-smoke
