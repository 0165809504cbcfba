# DeepRest reproduction — common tasks. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build vet test test-race check cover loc fuzz bench bench-all experiments experiments-quick examples clean

all: build vet test

# The gate CI runs: static analysis, the full test suite under the race
# detector (the pipeline swaps models while queries are in flight, so every
# test run should also be a race hunt), and the coverage summary.
check: vet test-race cover

# Coverage profile plus a per-package summary; the profile lands in
# cover.out for go tool cover -html=cover.out drill-downs.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# ROADMAP aim 2's number: non-test Go lines outside bench/ (the repo
# benchmark harness is its own module and frozen between benchmark issues).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 | \
		xargs -0 cat | wc -l

# Short-budget native fuzzing smoke over the decoders that accept external
# bytes (the model loader among them: its seeds are whole model streams, so
# minimising each interesting one is capped or it would eat the budget), the
# fault-spec parser and the dense kernels (every implementation against the
# one-row Go loop). `go test -fuzz` takes one target per invocation, so this
# runs the high-value targets back to back. Raise FUZZTIME for a longer hunt.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzIngestSpans -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzImportJSON -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzParseTopology -fuzztime=$(FUZZTIME) ./internal/topo
	$(GO) test -run='^$$' -fuzz=FuzzFleetManifest -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzKernelsMatchScalar -fuzztime=$(FUZZTIME) ./internal/nn/ad
	$(GO) test -run='^$$' -fuzz=FuzzLoadModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/estimator

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Hot-path benchmarks for the estimator (one GRU kernel step and one
# request's attention peer sums at the repo benchmark's widths, each on the
# Go loops and on the AVX2 kernels, training epoch, expert forward,
# end-to-end predict on
# both the eval-tape and the compiled tape-free engine — at toy width and,
# InferPredictSocial128, at the paper's — plus the 64-client concurrent
# serving path with p99 and the 16-tenant fleet serving path), recorded as
# BENCH_estimator.json, plus the ingestion path (bounded Record, cached vs
# uncached feature reads, zero-alloc extraction, warm vs cold /v1/estimate),
# recorded as BENCH_ingest.json, plus the topology path (generate, DSL
# parse/encode, simulate at 30/100/300 components), recorded as
# BENCH_topo.json, plus the shadow-scoring path (chunk scoring catch-up,
# scoreboard rendering), recorded as BENCH_quality.json, plus the autoscale
# control loop (O(log n) allocation lookup, offline planner, one closed-loop
# day), recorded as BENCH_autoscale.json — all for regression tracking
# across PRs.
bench:
	{ $(GO) test -run='^$$' -bench='GRUKernelStep|PeerSum' -benchmem ./internal/nn/ad ; \
	  $(GO) test -run='^$$' -bench=. -benchmem ./internal/estimator/... ; \
	  $(GO) test -run='^$$' -bench='EstimateConcurrent' -benchmem ./internal/service ; \
	  $(GO) test -run='^$$' -bench='FleetEstimate' -benchmem ./internal/fleet ; } | \
		$(GO) run ./cmd/benchjson -out BENCH_estimator.json
	$(GO) test -run='^$$' -bench='Record|Features|Extract|EstimateWarm|EstimateCold' -benchmem \
		./internal/telemetry ./internal/features ./internal/service | \
		$(GO) run ./cmd/benchjson -out BENCH_ingest.json
	$(GO) test -run='^$$' -bench='Topo' -benchmem ./internal/topo | \
		$(GO) run ./cmd/benchjson -out BENCH_topo.json
	$(GO) test -run='^$$' -bench='Scorer' -benchmem ./internal/quality | \
		$(GO) run ./cmd/benchjson -out BENCH_quality.json
	$(GO) test -run='^$$' -bench='AllocationAt|PlanSeries|CtrlLoop' -benchmem \
		./internal/autoscale ./internal/ctrl | \
		$(GO) run ./cmd/benchjson -out BENCH_autoscale.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Full-scale reproduction of every table and figure (a few minutes).
experiments:
	$(GO) run ./cmd/experiments

# Reduced-scale reproduction (well under a minute).
experiments-quick:
	$(GO) run ./cmd/experiments -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacityplan
	$(GO) run ./examples/sanitycheck
	$(GO) run ./examples/interpret

clean:
	$(GO) clean ./...
	rm -f deeprest.model telemetry.json test_output.txt bench_output.txt cover.out
