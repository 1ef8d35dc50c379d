# Verify loop for the SwiftDir reproduction.
#
#   make check       — the full gate: vet + tests + race-detector pass
#   make test        — tier-1: build + tests (what the seed guarantees)
#   make race        — go test -race over every package (fan-out safety)
#   make bench       — benchmark suite (-benchmem -count=6) -> BENCH_<date>.json
#   make bench-smoke — 1-iteration pass through the same pipeline (CI)
#   make benchdiff   — fresh run vs the committed baseline, ns/op deltas
#   make bench-gate  — hot-path ns/op ceiling + zero-alloc pins (CI)
#   make test-filters— every `go test -run` regex in CI and here selects
#                      at least one test (CI)
#   make fmt-check   — every tracked Go file is gofmt-clean (CI)
#   make serve       — build and run the swiftdir-serve HTTP front end
#   make serve-e2e   — boot a server, submit the same batch twice, assert
#                      the second pass is 100% cache hits, byte-identical
#   make fuzz        — brief run of the campaign scheduler fuzz target
#   make soak        — fault-injection soak sweep under -race (watchdog armed)
#   make mcheck      — exhaustive protocol model check (3 paper policies
#                      + Phase-Priority)
#   make proto-verify— single-source-of-truth gate: table invariants,
#                      differential conformance goldens, 0-alloc pins,
#                      table-dispatch fuzz corpus, model check
#   make bench-module— vet and short-test the separate benchmark/ module,
#                      which calls repo APIs that `go test ./...` skips (CI)
#   make cover       — coverage of the protocol+checker packages vs floor
#   make staticcheck — staticcheck, skipped when the binary is absent

GO ?= go

# Fuzz knobs shared between local runs and CI so the two cannot drift:
# override with  make fuzz FUZZTIME=30s  or point FUZZTARGET/FUZZPKG at a
# different corpus.
FUZZTARGET ?= FuzzCampaign
FUZZPKG    ?= ./internal/campaign
FUZZTIME   ?= 10s
FUZZTIME_LONG ?= 5m

# Coverage floor for `make cover`, in percent of statements across
# COVERPKGS. The floor is the measured baseline at the time the gate was
# added, minus a small noise margin; raise it as coverage grows, never
# lower it to admit a regression.
COVERPKGS  ?= ./internal/coherence,./internal/mcheck
# Measured baseline when the gate was added: 88.8% (2026-08-05).
COVERFLOOR ?= 87.0

# BENCHFILTER narrows `make bench` to a -bench regexp, e.g.
#   make bench BENCHFILTER='Engine|Access'
# BENCHTAG suffixes the output record so same-day runs don't collide, e.g.
#   make bench BENCHTAG=-onepath  ->  BENCH_<date>-onepath.json
BENCHFILTER ?= .
BENCHTAG    ?=
BENCHDATE   := $(shell date +%Y-%m-%d)$(BENCHTAG)

# benchdiff baseline: the newest committed record by default (skipping
# the record of the deleted sharded engine's benchmarks); override with
#   make benchdiff BENCHBASE=BENCH_2026-08-05.json
BENCHBASE ?= $(lastword $(sort $(filter-out %-shards-final.json,$(wildcard BENCH_*.json))))

.PHONY: check build test vet race bench bench-smoke benchdiff bench-gate bench-module test-filters fmt-check serve serve-e2e fuzz fuzz-long soak chaos mcheck proto-verify cover staticcheck

check: vet test race

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# -short skips the slowest full-suite runs; the race pass is about
# catching cross-job sharing in the campaign fan-out, which the short
# determinism and fuzz tests already exercise at full worker counts.
race:
	$(GO) test -race -short ./...

# Six repetitions per benchmark feed bench2json, which folds them into
# one entry each (min ns/op, max allocs/op) and writes the dated JSON
# record that seeds the repo's perf trajectory.
bench:
	$(GO) test -bench='$(BENCHFILTER)' -benchmem -count=6 -run=^$$ . > bench.raw
	@cat bench.raw
	$(GO) run ./cmd/bench2json < bench.raw > BENCH_$(BENCHDATE).json
	@rm -f bench.raw
	@echo "wrote BENCH_$(BENCHDATE).json"

# One iteration of every benchmark through the same parse pipeline; fast
# enough for CI, and proves both the benchmarks and bench2json still work.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ . > bench.raw
	$(GO) run ./cmd/bench2json < bench.raw > /dev/null
	@rm -f bench.raw
	@echo "bench smoke ok"

# Three repetitions give a usable min ns/op without the full six-count
# cost; the diff itself is informational (exit 0), regressions are the
# reader's call. The gate below is the hard tripwire.
benchdiff:
	@test -n "$(BENCHBASE)" || { echo "no BENCH_*.json baseline found"; exit 1; }
	$(GO) test -bench='$(BENCHFILTER)' -benchmem -count=3 -run=^$$ . > bench.raw
	$(GO) run ./cmd/bench2json -diff '$(BENCHBASE)' < bench.raw
	@rm -f bench.raw

# Hard perf gate for CI: the coherence hot-path benchmarks must stay
# under a generous ns/op ceiling (≈3x the committed baseline, so only a
# real regression trips it on shared runners) and allocation-free. The
# result-cache lookup and singleflight leader paths (swiftdir-serve's
# per-request fast path), the TLB hit and miss/evict paths, workload
# generation, the directory's write-after-read lookups and the
# controllers' block table are pinned the same way.
bench-gate:
	$(GO) test -bench='^BenchmarkAccess|^BenchmarkResultCache|^BenchmarkSingleflight|^BenchmarkMeshRoute|^BenchmarkTLB|^BenchmarkGenerator|^BenchmarkDirectory|^BenchmarkBlockTable' -benchmem -benchtime=50000x -run=^$$ . > bench.raw
	@cat bench.raw
	$(GO) run ./cmd/bench2json \
		-ceiling 'BenchmarkAccessMESI=2500,BenchmarkResultCacheHit=500,BenchmarkSingleflightDo=1000,BenchmarkMeshRoute=500,BenchmarkAccessMesh64=8000,BenchmarkTLBTranslateMiss=800' \
		-zeroalloc '^BenchmarkAccess|^BenchmarkResultCache|^BenchmarkSingleflight|^BenchmarkMeshRoute|^BenchmarkTLB|^BenchmarkGenerator|^BenchmarkDirectory|^BenchmarkBlockTable' < bench.raw > /dev/null
	@rm -f bench.raw
	@echo "bench gate ok"

# The benchmark harness is its own module (benchmark/go.mod), so the
# repo-wide `go test ./...` never builds it; this catches a repo API change
# that would break `bash benchmark/run.sh`.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Guard against silently empty test steps: every `go test -run '<regex>'`
# in the CI workflow and in this Makefile must list at least one test
# for each |-separated alternative of its regex (see the script).
test-filters:
	./scripts/check-test-filters.sh

# Formatting gate: gofmt -l lists every file it would rewrite, and any
# listing fails. Only tracked files are checked, which skips the
# benchmark's build cache in .bench_build/.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@echo "gofmt ok"

# Run the simulation service locally. Knobs:
#   make serve SERVE_ADDR=:9090 SERVE_CACHEDIR=/var/tmp/swiftdir-cache
SERVE_ADDR     ?= :8080
SERVE_CACHEDIR ?=
serve: build
	$(GO) run ./cmd/swiftdir-serve -addr '$(SERVE_ADDR)' -cachedir '$(SERVE_CACHEDIR)'

# End-to-end cache proof against a real server process: boot, submit the
# same 3-experiment batch twice, assert the second pass is 100% cache
# hits with byte-identical report bodies, then drain gracefully (CI).
serve-e2e: build
	./scripts/serve-e2e.sh

fuzz:
	$(GO) test -run=^$$ -fuzz=$(FUZZTARGET) -fuzztime=$(FUZZTIME) $(FUZZPKG)

# Short fault-injection soak sweep under the race detector: each
# benchmark runs under SOAK_PLANS deterministic fault plans (plan 0 is
# the no-fault control) with the liveness watchdog armed; architectural
# results must be byte-identical across plans. Crash bundles from any
# failure land in SOAK_ARTIFACTS (CI uploads that directory) and replay
# with `swiftdir-sim -replay <bundle>`.
SOAK_ARTIFACTS ?= soak-bundles
SOAK_BENCHES   ?= mcf,dedup
SOAK_PLANS     ?= 8
SOAK_SEED      ?= 1
soak:
	$(GO) run -race ./cmd/swiftdir-sim -soak -bench '$(SOAK_BENCHES)' \
		-scale 0.05 -plans $(SOAK_PLANS) -planseed $(SOAK_SEED) \
		-bundledir '$(SOAK_ARTIFACTS)'

# Chaos sweep on the scaled machine under the race detector: the
# CHAOS_CORES-core mesh/two-level topology swept under the scaled plan
# generator — mesh per-link delay spikes, pinned-link storms, and
# cluster-hub busy windows on top of the flat machine's fault classes —
# with the watchdog armed and the same metamorphic oracle (timing faults
# must move cycles only). Crash bundles land in SOAK_ARTIFACTS, carry
# the scaled topology in replay.json, and reproduce with
# `swiftdir-sim -replay <bundle>`.
CHAOS_CORES ?= 64
chaos:
	$(GO) run -race ./cmd/swiftdir-sim -soak -soakscaled -soakcores $(CHAOS_CORES) \
		-bench '$(SOAK_BENCHES)' -scale 0.02 -plans $(SOAK_PLANS) \
		-planseed $(SOAK_SEED) -bundledir '$(SOAK_ARTIFACTS)'

fuzz-long:
	$(GO) test -run=^$$ -fuzz=$(FUZZTARGET) -fuzztime=$(FUZZTIME_LONG) $(FUZZPKG)

# Bounded-exhaustive model check of the three paper protocols plus
# Phase-Priority on the default 2-core/1-line configuration, every
# interleaving explored. On a violation the minimal counterexample lands
# in MCHECK_ARTIFACTS (CI uploads that directory); locally it also
# prints to stdout.
MCHECK_ARTIFACTS ?= mcheck-artifacts
mcheck: build
	$(GO) run ./cmd/swiftdir-mcheck -policy all -coverage -artifacts '$(MCHECK_ARTIFACTS)'

# Single-source-of-truth gate for the table-driven protocol engine:
#   1. proto package invariants over every policy's table (iterating
#      coherence.ExtendedPolicies) — every table total (no unclassified
#      cells), the pre-refactor relations preserved verbatim,
#      Phase-Priority structurally identical to MESI, lookups 0-alloc;
#   2. the differential conformance harness — golden transcripts and
#      table-vs-controller dispatch parity in internal/coherence, the
#      policy truth table pinning the answers each policy's features
#      give, plus the steady-state and AccessSync 0-alloc pins the
#      refactor must not regress;
#   3. the 4-policy transition-coverage matrix (the checker reads each
#      policy's own table, so there is no second copy to compare);
#   4. a brief run of the table-dispatch fuzzer (regression corpus runs
#      in `make test`; this also explores new schedules);
#   5. the exhaustive model check of all four policies (see mcheck).
proto-verify: build
	$(GO) test -count=1 ./internal/proto
	$(GO) test -count=1 -run 'TestProtocolConformance|TestTranscriptGoldens|TestPolicyTruthTable|TestSteadyStateL1HitZeroAlloc|TestSteadyStateMissZeroAlloc|TestAccessSyncZeroAlloc' ./internal/coherence
	$(GO) test -count=1 -run 'TestTransitionCoverage' ./internal/mcheck
	$(GO) test -run=^$$ -fuzz=FuzzTableDispatch -fuzztime=$(FUZZTIME) ./internal/mcheck
	$(GO) run ./cmd/swiftdir-mcheck -policy all -artifacts '$(MCHECK_ARTIFACTS)'

# Statement-coverage gate over the protocol and model-checker packages.
# awk compares against the floor so the gate needs no extra tooling.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg='$(COVERPKGS)' \
		./internal/coherence ./internal/mcheck
	@$(GO) tool cover -func=cover.out | tail -n 1
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVERFLOOR) \
		'END { pct = $$3 + 0; if (pct < floor) { \
			printf "coverage %.1f%% below floor %.1f%%\n", pct, floor; exit 1 } \
			else printf "coverage %.1f%% >= floor %.1f%%\n", pct, floor }'
	@rm -f cover.out

# staticcheck is optional locally (the repo must build with a bare Go
# toolchain); CI installs it and the target then enforces a clean run.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
