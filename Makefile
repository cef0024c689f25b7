# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keeping them here makes the gates reproducible locally.

GO ?= go

.PHONY: build test race lint fuzz-smoke bench-smoke trace-smoke fabric-smoke axis-smoke perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a separate module that compiles against the exported
# names of internal/hier, internal/experiments and internal/server; this
# catches a refactor that breaks it before the benchmark runs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The race detector where goroutines actually meet (the concurrency
# harnesses, plus the packages whose tests drive them); the remaining
# simulation packages are single-goroutine by design.
race:
	$(GO) test -race ./internal/sched/ ./internal/server/ ./internal/metrics/ ./internal/experiments/ ./internal/fabric/ ./internal/frontend/ ./internal/tracefile/

# Static analysis: go vet plus pflint, the project linter
# (docs/LINTING.md). A finding anywhere fails the target.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/pflint ./...

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzConfigString -fuzztime=30s ./internal/config/
	$(GO) test -run=NONE -fuzz=FuzzHistoryTableIndex -fuzztime=30s ./internal/core/

# Real-trace pipeline smoke (docs/TRACES.md): convert the checked-in
# ChampSim fixture, assert the pinned fingerprint, replay the corpus.
trace-smoke:
	$(GO) build -o pftrace ./cmd/pftrace
	./pftrace convert -o sample.pftc -manifest corpus.json -name sample \
		internal/tracefile/testdata/sample.champsim.gz
	./pftrace info -json sample.pftc | \
		grep -q "$$(cat internal/tracefile/testdata/sample.fingerprint)"
	$(GO) run ./cmd/pfexperiments -traces corpus.json -n 20000 -warmup 5000
	$(GO) test -run 'TestSampleFixture|TestTraceComparisonDeterministicAcrossWorkers' \
		./internal/tracefile/ ./internal/experiments/

# Distributed-sweep smoke (docs/FABRIC.md): coordinator plus two
# workers over a shared CAS, one worker killed mid-sweep, determinism
# and CAS-hit assertions. Fully self-contained; see the script.
fabric-smoke:
	./scripts/fabric_smoke.sh

# Comparison-matrix smoke for one sweep axis (experiments.Axis): every
# registered backend of AXIS on one benchmark — the filter zoo head to
# head, the generator and instruction-prefetcher zoos crossed with
# none/pa — then that axis's pinned fingerprints.
#   make axis-smoke AXIS=filters|generators|iprefetch
AXIS ?= filters
axis_flags_filters    = -filters all
axis_flags_generators = -generators all -filters none,pa
axis_flags_iprefetch  = -iprefetch all -filters none,pa
axis_pinned_filters    = TestSeedFingerprintPinned|TestFilterComparisonFingerprintPinned
axis_pinned_generators = TestGeneratorFingerprintPinned|TestGeneratorAliasRunsIdentical
axis_pinned_iprefetch  = TestIPrefetchFingerprintPinned|TestIPrefetchAliasRunsIdentical

axis-smoke:
	@test -n "$(axis_flags_$(AXIS))" || { echo "AXIS must be filters, generators or iprefetch" >&2; exit 1; }
	$(GO) run ./cmd/pfexperiments $(axis_flags_$(AXIS)) -bench mcf \
		-n 100000 -warmup 20000
	$(GO) test -run '$(axis_pinned_$(AXIS))' ./internal/experiments/

# Reduced bench matrix; see docs/PERFORMANCE.md for the full policy.
bench-smoke:
	$(GO) run ./cmd/pfexperiments -bench-json -jobs 4 \
		-n 50000 -warmup 10000 -bench mcf,gzip \
		-bench-out BENCH_smoke.json
