package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"sunuintah/internal/core"
	"sunuintah/internal/faults"
	"sunuintah/internal/runner"
)

// shardedExec is Exec on the conservative sharded engine: the spec's
// configuration from SpecConfig with cfg.Shards set, run by
// core.RunResilient exactly as Exec runs it serially.
func shardedExec(shards int) runner.ExecFunc {
	return func(_ context.Context, spec runner.Spec) (*runner.Result, error) {
		cfg, problem, err := SpecConfig(spec)
		if err != nil {
			return nil, err
		}
		cfg.Shards = shards
		res, err := core.RunResilient(cfg, problem, spec.Steps)
		if err != nil {
			return nil, err
		}
		return &runner.Result{Feasible: true, Sim: res}, nil
	}
}

// execJSON runs a spec uncached through exec and returns the serialised
// result.
func execJSON(t *testing.T, exec runner.ExecFunc, spec runner.Spec) []byte {
	t.Helper()
	res, err := exec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestExecShardDeterminism sweeps a small case matrix — including a
// faulted run — across shard counts and asserts byte-identical run
// artifacts and identical simulated end times against Exec's serial
// engine. `make race` reruns this under the race detector.
func TestExecShardDeterminism(t *testing.T) {
	specs := []runner.Spec{
		{Cells: "16x16x32", Layout: "2x2x2", CGs: 8, Variant: "acc.async", Steps: 3, Functional: true},
		{Cells: "16x16x32", Layout: "2x2x2", CGs: 8, Variant: "acc_simd.sync", Steps: 3},
		{Cells: "16x16x32", Layout: "2x2x2", CGs: 8, Variant: "acc.async", Steps: 3,
			Faults: &faults.Plan{Seed: 5, Drop: 0.1, Dup: 0.1, Stall: 0.05}},
		// Flight-recorder runs: Result.Sim.Obs and .Trace ride inside the
		// compared JSON, extending bit-identity to the whole report.
		{Cells: "16x16x32", Layout: "2x2x2", CGs: 8, Variant: "acc.async", Steps: 3,
			Report: true, Trace: true},
		{Cells: "16x16x32", Layout: "2x2x2", CGs: 8, Variant: "acc.async", Steps: 3,
			Faults: &faults.Plan{Seed: 5, Drop: 0.1, Dup: 0.1, Stall: 0.05}, Report: true},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			ref := execJSON(t, Exec, spec)
			var refRes runner.Result
			if err := json.Unmarshal(ref, &refRes); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4} {
				got := execJSON(t, shardedExec(shards), spec)
				if string(got) != string(ref) {
					t.Fatalf("shards=%d: result differs from serial engine\nserial:  %s\nsharded: %s",
						shards, ref, got)
				}
				var gotRes runner.Result
				if err := json.Unmarshal(got, &gotRes); err != nil {
					t.Fatal(err)
				}
				if gotRes.Sim != nil && refRes.Sim != nil &&
					gotRes.Sim.StepEnds[len(gotRes.Sim.StepEnds)-1] != refRes.Sim.StepEnds[len(refRes.Sim.StepEnds)-1] {
					t.Fatalf("shards=%d: simulated end time differs", shards)
				}
			}
		})
	}
}

// TestShardsWorkersReportBitIdentical runs a flight-recorder spec through
// pools of different worker counts, on the serial engine (Exec) and on
// the sharded one, and asserts every Result — sampled series included — is
// byte-identical. Workers and shards are the two host-parallelism knobs;
// neither may leak into the virtual-time report. (Each run uses its own
// pool with a fresh cache, so no comparison is served from a memoised
// result.)
func TestShardsWorkersReportBitIdentical(t *testing.T) {
	spec := runner.Spec{Cells: "16x16x32", Layout: "2x2x2", CGs: 8, Variant: "acc.async",
		Steps: 3, Report: true, Trace: true}

	run := func(workers, shards int) []byte {
		t.Helper()
		exec := Exec
		if shards > 0 {
			exec = shardedExec(shards)
		}
		pool, err := runner.New(runner.Config{Workers: workers, Exec: exec, Cache: runner.NewMemoryCache(0)})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		res, err := pool.Submit(spec).Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Sim == nil || res.Sim.Obs == nil || res.Sim.Obs.Samples == 0 {
			t.Fatalf("workers=%d shards=%d: no flight-recorder report", workers, shards)
		}
		blob, err := json.Marshal(res.Sim)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	ref := run(1, 0)
	for _, c := range []struct{ workers, shards int }{{4, 0}, {1, 2}, {4, 4}} {
		if got := run(c.workers, c.shards); string(got) != string(ref) {
			t.Fatalf("workers=%d shards=%d: report differs from workers=1 serial run",
				c.workers, c.shards)
		}
	}
}

// TestReportExcludedFromHash: Report and Trace are reporting knobs — they
// must not change the content hash, so a report-bearing request aliases the
// same cache entry as the plain spec.
func TestReportExcludedFromHash(t *testing.T) {
	base := runner.Spec{Cells: "16x16x32", Layout: "2x2x2", CGs: 8, Variant: "acc.async", Steps: 3}
	withReport := base
	withReport.Report = true
	withReport.Trace = true
	if base.Hash() != withReport.Hash() {
		t.Fatal("Report/Trace changed the content hash; they must stay cache-transparent")
	}
}
