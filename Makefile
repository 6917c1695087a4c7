# charmgo build/test entry points. Tier-1 is `make check`.

GO ?= go

.PHONY: build test test-race vet fmt-check lint lint-audit lint-bench check fault-matrix resilience-matrix bench-smoke fuzz-smoke profile alloc-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check every internal package: the kernel and NIC model, the AMPI
# rank handoff (TestAMPIRaceClean), and the double-run determinism harness
# (TestExperimentsDeterministic) all run under the race detector.
test-race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# Fail if any Go file in the tree is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# simlint: all fourteen analyzers (internal/analysis/simlint) — the five
# determinism/kernel-discipline rules, the CFG/dataflow allocation rules
# (hotpathalloc, closechain), the atomic-discipline rule (atomicshared),
# and the typestate rules: pool ownership (poolleak, useafterrelease)
# and the protocols (creditbalance, flightlifecycle, eventtotality,
# boundedretry). Zero findings and zero unexplained or unused
# suppressions required; see DESIGN.md §6 "Determinism rules" /
# "Ownership rules" / "Protocol typestate rules".
# `go run ./cmd/simlint -rules` prints the full rule book.
lint:
	$(GO) run ./cmd/simlint ./...

# List every //simlint:allow suppression in the tree with its audit-trail
# justification (fails if any lacks one).
lint-audit:
	$(GO) run ./cmd/simlint -audit ./...

# Time the shared points-to solve and then each analyzer over the module,
# one line each, and fail if the checked-in budget (cmd/simlint/budget.json,
# ~4x a warm local run) is exceeded — the gate against an analyzer or the
# points-to solve going quadratic.
lint-bench:
	$(GO) run ./cmd/simlint -bench ./...

check: build vet fmt-check lint test test-race

# Fault-model matrix (DESIGN.md §7) under the race detector: the scenario
# runs (squeeze / tx-error / CQ back-pressure / combined, each double-run
# for bit-identical faulted replay), the ~200-seed random-schedule
# property test, and the faulted pool-drain gate.
fault-matrix:
	$(GO) test -race -count=1 -run 'TestFault' ./internal/bench/

# Node-failure recovery matrix (DESIGN.md §7) under the race detector:
# the failover scenario runs (single kill on both layers, kill during a
# rendezvous transfer, partition-heal, kill under both strategies — each
# double-run for bit-identical replay), the 200-seed random kill/partition
# failover property test (exactly-once delivery, per-connection FIFO,
# pools drained), the checkpoint round-trip proof, and the strategy unit
# tests.
resilience-matrix:
	$(GO) test -race -count=1 -run 'TestResilience|TestCheckpointRoundTrip|TestFailoverPathsDrainPools' ./internal/bench/
	$(GO) test -race -count=1 ./internal/resilience/ ./internal/fault/

# Quick microbenchmark pass over the kernel and uGNI SMSG hot paths (the
# event queue at the pingpong and namd population shapes, and SMSG sends
# over 4,096 and namd's 220,000 established pairs, included), a
# small chunked N-Queens run (allocs/op of the pooled task messages), and
# the end-to-end fig9a wall-clock benchmark.
bench-smoke:
	$(GO) test -run - -bench 'BenchmarkEngineScheduleFire|BenchmarkGapResourceAcquire' -benchtime 100000x ./internal/sim/
	$(GO) test -run - -bench BenchmarkEngineQueue -benchtime 200x ./internal/sim/
	$(GO) test -run - -bench BenchmarkSmsgSendWTag -benchtime 100000x ./internal/ugni/
	$(GO) test -run - -bench BenchmarkNQueensChunked -benchtime 20x ./internal/ssse/
	$(GO) test -run - -bench BenchmarkFig9aWallClock -benchtime 5x .

# Ten seconds each of coverage-guided fuzzing of GapResource against its
# linear reference under a forward-only clock, of the event kernel's
# firing order against a sort-by-key reference, of the SMSG endpoint
# tables against a pair-keyed map, of topology.Table against the Torus it
# precomputes, of the queens subtree-skew kernel against math.Pow (bit
# for bit), and of fault.Shrink's idempotence under fuzzed schedules and
# failure witnesses. `go test` runs only the checked-in corpora
# (<package>/testdata/fuzz/<target>); a failing input found here is
# written there and becomes a regression case. -fuzz takes one target per
# invocation.
fuzz-smoke:
	$(GO) test -run - -fuzz FuzzGapResource -fuzztime 10s ./internal/sim/
	$(GO) test -run - -fuzz FuzzEngineOrder -fuzztime 10s ./internal/sim/
	$(GO) test -run - -fuzz FuzzSmsgEndpoints -fuzztime 10s ./internal/ugni/
	$(GO) test -run - -fuzz FuzzTopologyTable -fuzztime 10s ./internal/topology/
	$(GO) test -run - -fuzz FuzzSubtreeSkew -fuzztime 10s ./internal/ssse/
	$(GO) test -run - -fuzz FuzzShrinkIdempotent -fuzztime 10s ./internal/fault/

# CPU and allocation profiles of the end-to-end fig9a benchmark, written
# to /tmp. Inspect with `go tool pprof -top /tmp/charmgo_cpu.prof` (or
# -sample_index=alloc_objects for /tmp/charmgo_mem.prof).
profile:
	$(GO) test -run - -bench BenchmarkFig9aWallClock -benchtime 100x \
		-cpuprofile /tmp/charmgo_cpu.prof -memprofile /tmp/charmgo_mem.prof .
	@echo "profiles written: /tmp/charmgo_cpu.prof /tmp/charmgo_mem.prof"

# CI allocation gate: fail if one full-axis fig9a regeneration allocates
# more than 10% over the checked-in threshold. Wall-clock comparisons are
# interleaved A/B runs against the parent commit: `bash cmd/simbench/run.sh
# --compare` (cmd/simbench/README.md).
alloc-gate:
	$(GO) run ./cmd/benchharness -allocgate .bench/fig9a_allocs_threshold
