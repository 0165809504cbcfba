# DeepRest reproduction — common tasks. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build vet test test-race check cover loc fuzz bench bench-all experiments experiments-quick seeds examples clean

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

# The tree's budgets (budgets_test.go): non-test Go lines outside bench/ and
# the sizes of DESIGN, CHANGES, README and EXPERIMENTS, each beside its budget.
loc:
	$(GO) test -count=1 -run '^TestBudgets$$' -v .

# Short-budget native fuzzing smoke over the decoders that accept external
# bytes (the model loader among them: its seeds are whole model streams, so
# minimising each interesting one is capped or it would eat the budget), the
# fault-spec parser and the dense kernels (every implementation against the
# one-row Go loop). `go test -fuzz` takes one target per invocation, so this
# runs the high-value targets back to back. Raise FUZZTIME for a longer hunt.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzImportJSON -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzParseTopology -fuzztime=$(FUZZTIME) ./internal/topo
	$(GO) test -run='^$$' -fuzz=FuzzFleetManifest -fuzztime=$(FUZZTIME) ./internal/fleet
	$(GO) test -run='^$$' -fuzz=FuzzKernelsMatchScalar -fuzztime=$(FUZZTIME) ./internal/nn/ad
	$(GO) test -run='^$$' -fuzz=FuzzLoadModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/estimator

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The repo benchmark (BENCHMARK.json): a real deeprestd over a real socket,
# open-loop load, end-to-end metrics gated against the parent commit.
bench:
	bash bench/run.sh

# Every microbenchmark, as plain go test output; nothing is recorded.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Full-scale reproduction of every table and figure (a few minutes).
experiments:
	$(GO) run ./cmd/experiments

# Reduced-scale reproduction (well under a minute).
experiments-quick:
	$(GO) run ./cmd/experiments -quick

# The quick reproduction at seeds 1–8, each seed's metric block in turn, so a
# result can be told from seed noise: count the seeds it holds at. IDS narrows
# the run to the named experiments (make seeds IDS=drift).
IDS ?=
seeds:
	@for n in 1 2 3 4 5 6 7 8; do \
		out=$$($(GO) run ./cmd/experiments -quick -seed $$n $(IDS)) || exit 1; \
		echo "== seed $$n"; echo "$$out" | grep '^  metric '; \
	done

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/capacityplan
	$(GO) run ./examples/sanitycheck
	$(GO) run ./examples/interpret

clean:
	$(GO) clean ./...
	rm -f deeprest.model telemetry.json test_output.txt bench_output.txt cover.out
