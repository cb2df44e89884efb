# Development targets. `make check` is the gate CI (and PRs) must pass.

GO ?= go

.PHONY: check vet build test examples race chaos workload loadcheck bench benchgate cover clean

check: vet build test examples race chaos workload loadcheck benchgate cover

vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt_out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Build and run every example end to end: each one self-verifies (exact
# solutions, serial-reference bit-identity) and exits non-zero on drift,
# so dormant examples can no longer rot as APIs move underneath them.
examples:
	$(GO) vet ./examples/...
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null; done
	@echo "examples: all ok"

# Race-check the concurrent subsystems: the sharded engine and the MPI
# model it drives (the packages with real cross-goroutine traffic), the
# runner package in full (including the determinism guard, which
# exercises real simulations on concurrent workers), the fault plane, all
# of core, and the experiments package's fast tests. The full-sweep
# experiments tests are minutes-long under the race detector, hence -short
# there. field, athread and scheduler are in because the tile worker pool
# computes on windows of the warehouse fields: its goroutines write
# main-memory storage directly; grid because a layout's ghost-geometry
# table is built on first use, and Layout methods were callable from any
# goroutine before there was a table. This is also the shard gate: core's
# TestShardedBitIdentical holds the conservative engine byte-identical to
# serial at shards 1/2/4/8, and sim's TestShardSet* cover the window/mail
# machinery, the latency-matrix and the mail-storm edge cases.
race:
	$(GO) test -race -count=1 ./internal/sim/... ./internal/mpisim/...
	$(GO) test -race -count=1 ./internal/grid/... ./internal/field/... ./internal/athread/... ./internal/scheduler/...
	$(GO) test -race -count=1 ./internal/runner/...
	$(GO) test -race -count=1 ./internal/faults/...
	$(GO) test -race -count=1 ./internal/trace/... ./internal/obs/...
	$(GO) test -race -count=1 ./internal/rng/... ./internal/physics/... ./internal/heat3d/... ./internal/workload/...
	$(GO) test -race -count=1 ./internal/core/
	$(GO) test -race -short -count=1 ./internal/experiments/...
	$(GO) test -race -count=1 ./internal/jobstore/... ./internal/admission/... ./internal/loadgen/... ./cmd/sunserver/

# The chaos gate: run the short fault-matrix determinism test (byte-equal
# artifact across worker counts, >= 95% of runs recovered at the default
# fault rate).
chaos:
	$(GO) test -run TestChaos -count=1 ./internal/experiments/

# The workload gate: the scenario sweep plus record-and-replay artifact
# must render byte-identically across worker and shard counts.
workload:
	$(GO) test -run TestWorkloadArtifact -count=1 ./internal/experiments/

# The load gate: the sunload harness (as a library) replays a compressed
# workload scenario against an in-process sunserver and fails if any
# submission errors, any accepted job never reaches a terminal state, or
# the latency quantiles come back implausible. Bounded runtime: tiny
# specs, instant executor, 60s hard deadline inside the test.
loadcheck:
	$(GO) test -run TestLoadCheck -count=1 ./cmd/sunserver/

# Run every micro-benchmark, then refresh the committed performance
# baseline. Commit the updated BENCH_baseline.json together with any
# intentional performance change.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...
	$(GO) run ./cmd/benchgate -record -o BENCH_baseline.json

# The perf-regression gate: remeasure the hot paths and fail on a large
# calibration-adjusted slowdown, any steady-state allocation increase, or a
# shards-vs-serial speedup below the machine's parallelism floor. The rate
# tolerance is sized to the window-to-window noise of shared CI hosts
# (spin-probe-gated medians still jitter ~25% there); alloc and speedup
# checks are absolute and unaffected by it.
benchgate:
	$(GO) run ./cmd/benchgate -check BENCH_baseline.json -tol 0.35

# Coverage floor on the observability layer (the flight recorder and the
# trace recorder): pure logic with deterministic outputs, kept above 80%.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/obs/ ./internal/trace/
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3+0 < 80) { printf "coverage %.1f%% is below the 80%% floor\n", $$3; exit 1 } \
		else { printf "observability coverage %.1f%% (floor 80%%)\n", $$3 } }'

clean:
	rm -rf .suncache .sunjobs cover.out
