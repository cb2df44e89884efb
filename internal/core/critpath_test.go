package core

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"sunuintah/internal/grid"
	"sunuintah/internal/obs"
	"sunuintah/internal/scheduler"
)

// TestShardsCriticalPathIdentity is the tentpole determinism gate for the
// critical-path analysis: the folded-in chain report (and the whole
// Result JSON carrying it) must be byte-identical across host workers and
// shard counts. The chain is derived from the canonicalised trace, so any
// engine-dependent ordering leaking into it shows up here as a byte diff.
func TestShardsCriticalPathIdentity(t *testing.T) {
	cells := grid.IV(16, 16, 16)
	patches := grid.IV(2, 2, 2)
	const nSteps = 3

	run := func(workers, shards int) ([]byte, []byte, *obs.Report) {
		t.Helper()
		prev := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
		cfg := Config{
			Cells:       cells,
			PatchCounts: patches,
			NumCGs:      8,
			Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 4)},
			Shards:      shards,
			Obs:         &obs.Options{Trace: true},
		}
		prob, _ := burgersProblem(cells, patches)
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
		var table bytes.Buffer
		res.Obs.WriteCriticalPath(&table)
		return blob, table.Bytes(), res.Obs
	}

	refJSON, refTable, refObs := run(4, 0)
	if refObs == nil || refObs.CritPath == nil {
		t.Fatal("reference run has no critical-path report")
	}
	cp := refObs.CritPath
	if cp.MakespanSeconds <= 0 {
		t.Fatalf("non-positive makespan: %v", cp.MakespanSeconds)
	}
	total, shares := 0.0, 0.0
	for _, c := range cp.Categories {
		total += c.Seconds
		shares += c.Share
	}
	if math.Abs(total-cp.MakespanSeconds) > 1e-9*cp.MakespanSeconds {
		t.Fatalf("category seconds %v != makespan %v", total, cp.MakespanSeconds)
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", shares)
	}

	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4, 8} {
			gotJSON, gotTable, _ := run(workers, shards)
			if !bytes.Equal(gotJSON, refJSON) {
				t.Fatalf("workers=%d shards=%d: Result JSON differs\nref: %s\ngot: %s",
					workers, shards, refJSON, gotJSON)
			}
			if !bytes.Equal(gotTable, refTable) {
				t.Fatalf("workers=%d shards=%d: critical-path table differs\nref:\n%s\ngot:\n%s",
					workers, shards, refTable, gotTable)
			}
		}
	}
}
