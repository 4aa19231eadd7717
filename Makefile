# The CI pipeline's jobs, reproducible locally: `make verify` is the
# tier-1 gate, `make lint` the lint job, `make fuzz-smoke` the fuzz job,
# `make bench` the bench-regression job, `make chaos` the fault-injection
# job. See .github/workflows/ci.yml — each job runs the matching target,
# so a green local make means a green pipeline.

GO ?= go
FUZZTIME ?= 30s
BENCH_OUT ?= bench_current.ndjson
# Fault-injection seeds: each is a full deterministic chaos schedule.
# CI fans one seed per matrix leg (make chaos CHAOS_SEED=7); bare
# `make chaos` runs the whole matrix sequentially.
CHAOS_SEEDS ?= 1 7 42

.PHONY: verify fmt vet build test lint lint-selfcheck lint-suppressions fuzz-smoke bench bench-baseline chaos chaos-write qlog-smoke serve-smoke ledger

# Tier-1 gate: vet, build, race-checked order-shuffled tests.
verify: vet build test

# gofmt -l . walks the whole module, the linter's own packages included.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race -shuffle=on ./...

# Static analysis: the engine's own invariants (ctx plumbing/polling,
# goroutines only via internal/parallel, errors.Is over ==, literal
# unique obs metric names, deterministic internal/ paths, recover() only
# at sanctioned panic boundaries) plus the path-sensitive resource-leak
# suite (ledgerleak, spanend, closeleak, errdrop on the CFG/dataflow
# layer), enforced by cmd/statlint on stdlib tooling alone. Non-zero
# exit on any finding; suppress per line with
# `//lint:ignore <analyzer> <reason>`. `make lint SARIF=out.sarif` also
# writes the findings as SARIF 2.1.0 (CI uploads it for PR annotations).
lint:
	$(GO) run ./cmd/statlint $(if $(SARIF),-sarif $(SARIF)) ./...

# The linter must hold itself to its own bar: statlint over its driver,
# CFG/dataflow layer and analyzers, zero findings required.
lint-selfcheck:
	$(GO) run ./cmd/statlint ./internal/lint/... ./cmd/statlint

# Suppression budget: the count of //lint:ignore directives across the
# module may only go down. Deleting a suppression? Lower the budget in
# the same commit. Needing a new one needs a reasoned bump here, in
# review's plain sight.
#
# 14 -> 17: the write path times each load for writer.publish_ns and its
# qlog flight record (2 nodeterm in internal/writer), and POST /append
# stamps the request's arrival like the query handlers do (1 nodeterm in
# internal/serve) — all wall-clock-by-declaration measurement sites.
# 17 -> 15: the query entry points share one start stamp (internal/query
# had three).
# 15 -> 14: serve's accept loop moved into obs.
SUPPRESSION_BUDGET ?= 14
lint-suppressions:
	@total=$$($(GO) run ./cmd/statlint -suppressions ./... | awk '$$1=="total"{print $$2}'); \
	echo "//lint:ignore directives: $$total (budget $(SUPPRESSION_BUDGET))"; \
	if [ -z "$$total" ] || [ "$$total" -gt "$(SUPPRESSION_BUDGET)" ]; then \
		echo "suppression inventory grew past the budget: remove a //lint:ignore or raise SUPPRESSION_BUDGET with justification"; \
		exit 1; \
	fi

# Fuzz smoke: every Fuzz* target for $(FUZZTIME) each, seeded from the
# committed corpora under */testdata/fuzz/. The targets are listed per
# package by `go test -list`, so a new fuzzer runs here without being
# named; an empty list fails the target rather than passing vacuously.
fuzz-smoke:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$list"; exit 1; }; \
	targets="$$(echo "$$list" | awk '/^Fuzz/ {t[n++] = $$1; next} /^ok/ {for (i = 0; i < n; i++) print $$2 "," t[i]; n = 0}')"; \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: no Fuzz targets found"; exit 1; fi; \
	for pt in $$targets; do \
		pkg=$${pt%,*}; target=$${pt#*,}; \
		echo "== $$target ($$pkg)"; \
		$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
	done

# Chaos: the fault-injection suites (injected errors, panics, torn
# writes, bit-flips) under each fixed seed, race-checked. The suites
# assert the engine's failure contract: byte-identical correct result or
# clean typed error, never partial state, leaked reservation or
# readable corrupt snapshot.
chaos:
	@for seed in $(if $(CHAOS_SEED),$(CHAOS_SEED),$(CHAOS_SEEDS)); do \
		echo "== chaos seed $$seed =="; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 ./internal/fault/... ./internal/snapshot/... ./internal/serve/... ./internal/writer/... || exit 1; \
	done

# Write-path chaos: the torn-load matrix over the MVCC writer alone —
# injected errors, short writes, bit-flips and panics at
# writer.append/writer.delta/writer.publish, the log append (log.write)
# and the checkpoint's snapshot write/rename points, per seed. The
# suites assert the publish contract: a refused append is never
# visible, leaves no log record and is published by no later load, the
# previous generation stays authoritative, a logged batch is published
# exactly once, concurrent appends each publish their own generation,
# and bounded retries converge byte-identically to the fault-free state.
chaos-write:
	@for seed in $(if $(CHAOS_SEED),$(CHAOS_SEED),$(CHAOS_SEEDS)); do \
		echo "== chaos-write seed $$seed =="; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 -run 'TestChaos' ./internal/writer/... || exit 1; \
	done

# Bench regression: the E9/E16 micro-benchmarks, the evaluator's retail
# benchmark, the cube layer's bulk-build, materialize, publish and
# checkpoint encode/decode kernels, restart recovery (from a checkpoint
# alone and behind a full log), the load path's kernels (core's bulk
# ingest, the retail generator and its coded export) and the key sort
# core and cube share (sanity, 1 iteration), plus the full experiment suite's deterministic counters
# diffed against BENCH_BASELINE.json.
# Fails only on a counter that differs from the baseline (exact;
# parallel.* counters follow GOMAXPROCS and are skipped — see
# scripts/benchdiff.go); wall-clock time is gated by `make ledger`.
bench:
	$(GO) test -bench='E9|E16' -benchtime=1x -count=3 -run='^$$' .
	$(GO) test -bench=EvalRetail -benchtime=1x -run='^$$' ./internal/query
	$(GO) test -bench='BuildSmallestParent|Materialize$$|Publish|DecodeMaterialized|EncodeViews|RollUp' -benchtime=1x -run='^$$' ./internal/cube
	$(GO) test -bench='OpenCheckpoint|OpenAtLogBound' -benchtime=1x -run='^$$' ./internal/writer
	$(GO) test -bench=ObserveRows -benchtime=1x -run='^$$' ./internal/core
	$(GO) test -bench='Sort|Group' -benchtime=1x -run='^$$' ./internal/keyspace
	$(GO) test -bench='NewRetail|CubeInputFromObject' -benchtime=1x -run='^$$' ./internal/workload
	$(GO) run ./cmd/cubebench -stats-json > $(BENCH_OUT)
	bash scripts/serve_smoke.sh bench >> $(BENCH_OUT)
	$(GO) run ./scripts/benchdiff.go -baseline BENCH_BASELINE.json -current $(BENCH_OUT)

# Performance ledger: every BENCHMARK.json workload through the driver's
# own command (bench/run.sh, 15 s windows), saved as one result set, then
# compared with a parent's against BENCHMARK.json's bounds. Run it on the
# parent checkout first and copy that bench/out/ledger.json to
# bench/out/ledger_parent.json here; without one the target only measures.
ledger:
	bash bench/run.sh -o bench/out/ledger.json
	@if [ -f bench/out/ledger_parent.json ]; then \
		$(GO) run ./bench -compare bench/out/ledger_parent.json bench/out/ledger.json; \
	else \
		echo "ledger: no bench/out/ledger_parent.json to compare against; wrote bench/out/ledger.json"; \
	fi

# Flight-recorder smoke: run a short benchmark slice with the query
# flight recorder on, then require statprof to reduce the NDJSON log to
# a non-empty, well-formed workload profile (-check exits non-zero on an
# empty log). qlog_profile.json is the CI artifact.
qlog-smoke:
	$(GO) run ./cmd/cubebench -stats-json -qlog qlog_smoke.ndjson E9 E16 > /dev/null
	$(GO) run ./cmd/statprof -json -check qlog_smoke.ndjson > qlog_profile.json
	$(GO) run ./cmd/statprof qlog_smoke.ndjson

# Serving-layer smoke: build statd + statload, drive a real daemon
# through a warm-cache phase (hit ratio and p99 gated) and an
# exhausted-governor phase (every request shed as a typed 429), and
# require a clean SIGTERM exit after each. serve_load.ndjson is the CI
# artifact.
serve-smoke:
	bash scripts/serve_smoke.sh

# Regenerate the committed baseline from this machine.
bench-baseline:
	$(GO) run ./cmd/cubebench -stats-json > $(BENCH_OUT)
	bash scripts/serve_smoke.sh bench >> $(BENCH_OUT)
	$(GO) run ./scripts/benchdiff.go -baseline BENCH_BASELINE.json -current $(BENCH_OUT) -update
