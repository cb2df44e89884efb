# Development targets. `make check` is the gate CI (and PRs) must pass.

GO ?= go

.PHONY: check vet build test examples race cover bench-module clean

check: vet build test examples race cover bench-module

# The second line builds and vets the Burgers kernel's portable Go path
# (no amd64 assembly) on another architecture.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/burgers/
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt_out"; exit 1; fi

build:
	$(GO) build ./...

# The second line holds the Burgers kernel's Go fallback (the purego
# build, no AVX2 tile kernel) to the same bit-identity gates and golden
# field hashes, runs the tile property test's sentinel check on the
# fallback's row loop, and NaN-poisons reused warehouse storage under it
# (core's TestStaleStorageNeverReachesOutput).
test:
	$(GO) test ./...
	$(GO) test -tags purego -count=1 -run 'BitIdentity|AdvanceOpt|TileWindows|StencilTile|StaleStorage' ./internal/burgers/ ./internal/experiments/ ./internal/core/

# Build and run every example end to end: each one self-verifies (exact
# solutions, serial-reference bit-identity) and exits non-zero on drift,
# so dormant examples can no longer rot as APIs move underneath them.
examples:
	$(GO) vet ./examples/...
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null; done
	@echo "examples: all ok"

# Race-check every package. A simulation runs on one host thread — the
# sharded engine runs its shard windows one after another on the caller's
# goroutine — so real cross-goroutine traffic lives in: the runner pool (its
# determinism guard runs real simulations on concurrent workers); sunserver
# and its journal; scheduler's tile queue (its workers, and the ranks that
# run queued tiles while they wait, write main-memory storage directly
# through field/athread windows; scheduler's and core's tests drive it at
# GOMAXPROCS 1 and 2); burgers' phi cache (shared by every tile of a task)
# and grid's profile cache; field's slice pool; grid's build-on-first-use
# ghost-geometry table; and obs's progress bus. The rest cost a second
# each. The full-sweep experiments tests and sim's whole-simulation tests
# are minutes-long under the race detector, hence -short there. This is
# also the shard gate: core's TestShardedBitIdentical holds the
# conservative engine (core.Config.Shards, set only by bench/ and the
# tests) byte-identical to serial at shards 1/2/4/8, experiments'
# TestExecShardDeterminism does so end to end through SpecConfig, and
# sim's TestShardSet* cover the window/mail machinery, the latency-matrix
# and the mail-storm edge cases. And it is the reference gate: sim's
# TestLazyClocksMatchReference (both engines), core's
# TestShardedBitIdentical cases on the serial engine and mpisim's exchange
# properties hold every fast path (lazy process clocks, messages decided at
# post, one park per wait, persistent requests on channels, a sender steps
# ahead of its receiver) byte-identical to the engine's reference mode
# (Engine.SetReference: every Charge a Sleep, every message an event);
# sim's run at its -short sizes, and its 250-case comparison,
# TestPaperMatrixMatchesReference, is skipped (tier-1 runs it).
race:
	$(GO) test -race -count=1 $$($(GO) list ./... | grep -v -e /internal/experiments -e /internal/sim)
	$(GO) test -race -short -count=1 ./internal/experiments/ ./internal/sim/

# Coverage floors: the observability layer (the flight recorder and the
# trace recorder), pure logic with deterministic outputs, kept above 80%;
# and the MPI model, whose API is only what the scheduler calls, so its own
# tests must reach all of it, kept above 90%.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/obs/ ./internal/trace/
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3+0 < 80) { printf "coverage %.1f%% is below the 80%% floor\n", $$3; exit 1 } \
		else { printf "observability coverage %.1f%% (floor 80%%)\n", $$3 } }'
	$(GO) test -count=1 -coverprofile=cover.out ./internal/mpisim/
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3+0 < 90) { printf "mpisim coverage %.1f%% is below the 90%% floor\n", $$3; exit 1 } \
		else { printf "mpisim coverage %.1f%% (floor 90%%)\n", $$3 } }'

# The benchmark module's own gate. bench/ is a separate module (it pins
# go 1.22 and replaces sunuintah with ../), so the root's vet and test never
# enter it, and the root api_test.go only catches build breaks. This runs its
# vet and unit tests, so a change that breaks the benchmark's logic fails
# here, before any benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

clean:
	rm -rf .suncache .sunjobs cover.out
