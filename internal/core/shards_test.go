package core

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"sunuintah/internal/faults"
	"sunuintah/internal/grid"
	"sunuintah/internal/obs"
	"sunuintah/internal/scheduler"
)

// shardRun executes one case and returns its Result serialised to JSON
// plus the packed final field (nil in timing-only mode). Byte-equality of
// these artifacts is the sharded engine's contract: shards change only
// wall-clock speed, never the simulated outcome.
func shardRun(t *testing.T, cfg Config, nSteps int) ([]byte, []float64) {
	t.Helper()
	prob, u := burgersProblem(cfg.Cells, cfg.PatchCounts, cfg.Scheduler.SIMD)
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nSteps)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Scheduler.Functional {
		return blob, nil
	}
	f, err := s.GatherField(u)
	if err != nil {
		t.Fatal(err)
	}
	return blob, f.Pack(s.Level.Layout.Domain, nil)
}

// TestShardedBitIdentical is the tentpole determinism guarantee: for every
// shard count the parallel engine produces byte-identical results — the
// Result JSON (timings, counters, stats) and, in functional mode, every
// field value — to the serial engine. It runs at 1, 2 and 8 threads so the
// shard counts meet both window dispatches (inline when GOMAXPROCS < shards,
// workers otherwise) on any host.
func TestShardedBitIdentical(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	const nSteps = 3

	base := func(mode scheduler.Mode, functional bool, cgs int) Config {
		return Config{
			Cells:       cells,
			PatchCounts: patches,
			NumCGs:      cgs,
			Scheduler: scheduler.Config{
				Mode:       mode,
				TileSize:   grid.IV(8, 8, 4),
				Functional: functional,
			},
		}
	}
	noCrash := &faults.Plan{Seed: 7, Drop: 0.1, Dup: 0.1, Delay: 0.1, Straggle: 0.1}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"functional-async-8cg", base(scheduler.ModeAsync, true, 8)},
		{"functional-sync-4cg", base(scheduler.ModeSync, true, 4)},
		{"timing-async-8cg", base(scheduler.ModeAsync, false, 8)},
		{"faulted-async-8cg", func() Config {
			c := base(scheduler.ModeAsync, true, 8)
			c.Faults = noCrash
			return c
		}()},
		// Flight-recorder cases: Result.Obs (every sampled series, overlap,
		// roofline) and Result.Trace ride inside the compared JSON, so the
		// byte-identity contract extends to the whole report.
		{"obs-async-8cg", func() Config {
			c := base(scheduler.ModeAsync, false, 8)
			c.Obs = &obs.Options{}
			return c
		}()},
		{"obs-trace-faulted-8cg", func() Config {
			c := base(scheduler.ModeAsync, true, 8)
			c.Faults = noCrash
			c.Obs = &obs.Options{Trace: true}
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refJSON, refField := shardRun(t, tc.cfg, nSteps)
			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					// shards=8 on the 8-CG cases puts exactly one rank in
					// every shard — the single-rank-shard edge of the latency
					// matrix (every pair crosses shards, none shares an engine).
					// It is also the unfolded reference for mpisim's shared-engine
					// send: with no pair on one engine, every send completion is
					// its own event, never folded into the message's delivery.
					for _, shards := range []int{1, 2, 4, 8} {
						cfg := tc.cfg
						cfg.Shards = shards
						gotJSON, gotField := shardRun(t, cfg, nSteps)
						if string(gotJSON) != string(refJSON) {
							t.Fatalf("shards=%d: result JSON differs from serial engine\nserial:  %s\nsharded: %s",
								shards, refJSON, gotJSON)
						}
						if len(gotField) != len(refField) {
							t.Fatalf("shards=%d: field length %d != %d", shards, len(gotField), len(refField))
						}
						for i := range gotField {
							if gotField[i] != refField[i] {
								t.Fatalf("shards=%d: field[%d] = %g != %g (must be bit-identical)",
									shards, i, gotField[i], refField[i])
							}
						}
					}
				})
			}
		})
	}
}

// TestShardedCrashPlanForcesSerial checks the crash-capable fallback: a
// plan that can tear a run down runs on the serial engine regardless of
// the shard request (a crash is a zero-lookahead global event), and the
// resilient result is byte-identical either way.
func TestShardedCrashPlanForcesSerial(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	prob, _ := burgersProblem(cells, patches, false)
	cfg := Config{
		Cells:       cells,
		PatchCounts: patches,
		NumCGs:      4,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 4), Functional: true},
		Faults:      &faults.Plan{Seed: 3, CrashAtStep: 2, CheckpointEvery: 2},
	}

	// Both ways a plan can crash a core group: a pinned step and a per-run
	// probability.
	for _, plan := range []*faults.Plan{cfg.Faults, {Seed: 3, Crash: 0.5, CheckpointEvery: 2}} {
		c := cfg
		c.Shards = 4
		c.Faults = plan
		s, err := NewSimulation(c, prob)
		if err != nil {
			t.Fatal(err)
		}
		if s.shards != nil {
			t.Fatalf("crash-capable plan %+v must force the serial engine", *plan)
		}
	}

	serial, err := RunResilient(cfg, prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	sharded, err := RunResilient(cfg, prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(sharded)
	if string(a) != string(b) {
		t.Fatalf("crash-plan results differ:\nserial:  %s\nsharded: %s", a, b)
	}
}

// TestShardsReportUnderCrashPlan: the flight recorder under
// checkpoint/restart — a crash-plan run (forced serial regardless of the
// shard request) carries a report from the surviving incarnation, and the
// report is byte-identical whatever Shards asked for.
func TestShardsReportUnderCrashPlan(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	prob, _ := burgersProblem(cells, patches, false)
	cfg := Config{
		Cells:       cells,
		PatchCounts: patches,
		NumCGs:      4,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 4), Functional: true},
		Faults:      &faults.Plan{Seed: 3, CrashAtStep: 2, CheckpointEvery: 2},
		Obs:         &obs.Options{Trace: true},
	}

	serial, err := RunResilient(cfg, prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Obs == nil || serial.Obs.Samples == 0 {
		t.Fatal("resilient run has no flight-recorder report")
	}
	if len(serial.Trace) == 0 {
		t.Fatal("resilient run has no trace")
	}
	if serial.Obs.Roofline == nil || len(serial.Obs.Overlap) != 4 {
		t.Fatalf("report missing roofline/overlap: %+v", serial.Obs)
	}
	cfg.Shards = 4
	sharded, err := RunResilient(cfg, prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(sharded)
	if string(a) != string(b) {
		t.Fatalf("crash-plan reports differ:\nserial:  %s\nsharded: %s", a, b)
	}
}

// TestNegativeShardsRejected: the validation satellite — a negative shard
// count is a configuration error with a clear message, not a panic deep
// in the engine.
func TestNegativeShardsRejected(t *testing.T) {
	cells := grid.IV(8, 8, 8)
	prob, _ := burgersProblem(cells, grid.IV(1, 1, 1), false)
	cfg := Config{
		Cells:       cells,
		PatchCounts: grid.IV(1, 1, 1),
		NumCGs:      1,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeSync, Functional: false},
		Shards:      -2,
	}
	if _, err := NewSimulation(cfg, prob); err == nil {
		t.Fatal("want error for Shards = -2, got nil")
	}
}

// TestShardsClampedToRanks: asking for more shards than ranks silently
// clamps (one rank per shard is the finest useful partition).
func TestShardsClampedToRanks(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	prob, _ := burgersProblem(cells, patches, false)
	cfg := Config{
		Cells:       cells,
		PatchCounts: patches,
		NumCGs:      2,
		Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 4), Functional: false},
		Shards:      16,
	}
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	if s.shards == nil || s.shards.NumShards() != 2 {
		t.Fatalf("want 2 shards for 2 ranks, got %v", s.shards)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
}
