# Development targets. `make check` is the gate CI (and PRs) must pass.

GO ?= go

.PHONY: check vet build test examples race cover clean

check: vet build test examples race cover

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

# Race-check every package. Real cross-goroutine traffic lives in the
# sharded engine and the MPI model it drives, the runner pool (its
# determinism guard runs real simulations on concurrent workers), sunserver
# and its journal, the tile worker pool of field/athread/scheduler (it
# writes main-memory storage directly) and grid's build-on-first-use
# ghost-geometry table; the rest cost a second each. The full-sweep
# experiments tests and sim's whole-simulation tests are minutes-long under
# the race detector, hence -short there. This is also the shard gate:
# core's TestShardedBitIdentical holds the conservative engine
# (core.Config.Shards, set only by bench/ and the tests) byte-identical to
# serial at shards 1/2/4/8, experiments' TestExecShardDeterminism does so
# end to end through SpecConfig, and sim's TestShardSet* cover the
# window/mail machinery, the latency-matrix and the mail-storm edge cases.
# And it is the lazy-clock gate: two sim tests hold process clocks that
# run ahead of the calendar (Process.Charge) exact.
# TestLazyClocksMatchAlwaysSync runs whole simulations against the
# unexported always-synchronise path (Engine.alwaysSync: every Charge a
# Sleep) on both engines, and TestTieCensusPaperMatrix (skipped by -short;
# tier-1 runs it) reads zero same-instant ties an ahead process could have
# reordered over the paper's 250-case matrix. It is the park gate too: a
# message between ranks on one engine is no calendar event, and mpisim's
# TestPropertyParkMatchesDeliveryMatching holds a parked rank's wake
# clocks, Test answers and doneAts equal to a run with one rank per shard,
# where every message is delivered by an event that fires its receive.
race:
	$(GO) test -race -count=1 $$($(GO) list ./... | grep -v -e /internal/experiments -e /internal/sim)
	$(GO) test -race -short -count=1 ./internal/experiments/ ./internal/sim/

# Coverage floor on the observability layer (the flight recorder and the
# trace recorder): pure logic with deterministic outputs, kept above 80%.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/obs/ ./internal/trace/
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3+0 < 80) { printf "coverage %.1f%% is below the 80%% floor\n", $$3; exit 1 } \
		else { printf "observability coverage %.1f%% (floor 80%%)\n", $$3 } }'

clean:
	rm -rf .suncache .sunjobs cover.out
