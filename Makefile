# Development entry points for the repro module. Everything is standard
# library only; the targets below are the same commands CI / reviewers run.

GO ?= go

.PHONY: all build test vet race bench bench-compare bench-smoke bench-suite-smoke loadgen-smoke metrics-smoke cli-smoke fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector pass over every package — a hand-kept list of the
# concurrency-bearing ones silently misses the next one (and cmd/...).
race:
	$(GO) test -race ./...

# The repository's one benchmark (bench/README.md, BENCHMARK.json): all four
# workloads, end-to-end metrics plus the layer ladder, into one report named
# after the commit it measured.
bench:
	bash bench/run.sh -o bench/out/$$(git rev-parse --short HEAD).json

# Compare two `make bench` reports metric by metric against the bounds in
# BENCHMARK.json: make bench-compare OLD=bench/out/a.json NEW=bench/out/b.json
bench-compare:
	bash bench/run.sh -compare $(OLD) $(NEW)

# Quick scale smoke (n = 10k only) — the CI guard that the scale paths keep
# working without paying for the full ladder. Pinned to -cpu 1 so the smoke
# stays single-core and comparable across runners.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkScale' -benchmem -benchtime 1x -cpu 1 \
		./internal/sim/ ./internal/core/

# bench/ is a module of its own, so `go build ./...` here never compiles it
# and does not notice when an exported API it calls (placesvc/shardsvc Config
# fields, Stats, Snapshot) changes. This builds it and runs its -scale tiny
# suite (< 5 s) against the working tree.
bench-suite-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Loadgen smoke: a short concurrent serving run (1k PMs, 4 clients) — the CI
# guard that the admission service sustains concurrent clients end to end.
# The second run fronts the same pool with a 4-shard federation (power-of-d
# routing + background rebalancer) so the federated plane gets the same
# end-to-end guard.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -pms 1000 -clients 4 -ops 10000
	$(GO) run ./cmd/loadgen -pms 1000 -clients 4 -ops 10000 -shards 4

# Metrics smoke: scrape /metrics (exposition-conformance-checked), hit
# /debug/flight and /debug/pprof during a live loadgen run — the CI guard for
# the observability endpoints. Runs via the scrape-during-run test so the
# scrape happens while the service is serving.
metrics-smoke:
	$(GO) test -run TestMetricsScrapeDuringRun -v ./cmd/loadgen/

# CLI smoke: all six cmd/ binaries on a tiny invocation each — tracegen and
# burstsim run nowhere else — with cmd/simulate at 2k VMs, migration on and
# the forecast hook, diffed across -shards 1 and 4 (cmd/smoke.sh).
cli-smoke:
	GO=$(GO) bash cmd/smoke.sh

# Short fuzz smoke of every fuzz target in the module: the solver-agreement,
# transient-agreement and MapCal contracts, the three markov estimators, the
# fault-plan and admission-config parsers, and the dense Placement against its
# map-based reference.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSolverAgreement -fuzztime 10s ./internal/queuing/
	$(GO) test -run '^$$' -fuzz FuzzTransientAgreement -fuzztime 10s ./internal/queuing/
	$(GO) test -run '^$$' -fuzz FuzzMapCal -fuzztime 10s ./internal/queuing/
	$(GO) test -run '^$$' -fuzz FuzzBinomialPMF -fuzztime 10s ./internal/markov/
	$(GO) test -run '^$$' -fuzz FuzzFitLevels -fuzztime 10s ./internal/markov/
	$(GO) test -run '^$$' -fuzz FuzzEstimateOnOff -fuzztime 10s ./internal/markov/
	$(GO) test -run '^$$' -fuzz FuzzFaultPlan -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz FuzzAdmissionConfig -fuzztime 10s ./internal/admission/
	$(GO) test -run '^$$' -fuzz FuzzPlacementOps -fuzztime 10s ./internal/cloud/

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
