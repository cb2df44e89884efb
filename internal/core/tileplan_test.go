package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"sunuintah/internal/faults"
	"sunuintah/internal/grid"
	"sunuintah/internal/loadbalancer"
	"sunuintah/internal/scheduler"
)

// TestRegridStormMatchesRecordedOutput is the stale-plan guard for the
// scheduler's per-patch tile plan: a storm of regrids that reuse patch IDs
// for different boxes, then a rebalance, must reproduce — byte for byte —
// the segment results recorded from the commit before the plan cache
// existed, when every offload re-derived its tiling from scratch.
func TestRegridStormMatchesRecordedOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other ports may fuse multiply-adds in the timing model")
	}
	cases := []struct {
		name       string
		tile       grid.IVec
		functional bool
		want       string
	}{
		{"uniform", grid.IV(8, 8, 4), false, "9a7be1f794dab6640158cc7802b9b71470050fec2dd03414cf78da009705bbb5"},
		{"clipped-tiles", grid.IV(8, 8, 3), false, "7c94f1467c53cca413e671ddce7b6d3468db3114d61f7d2bdb64e9692ae55f11"},
		{"functional", grid.IV(8, 8, 4), true, "00abfb268e505acb7f5cf560bbb7a9006bda84e86fbfe14d4d7823167e699d65"},
	}
	cells, patches := grid.IV(32, 32, 32), grid.IV(2, 2, 2)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob, _ := burgersProblem(cells, patches, false)
			s, err := NewSimulation(Config{Cells: cells, PatchCounts: patches, NumCGs: 4,
				Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: tc.tile, Functional: tc.functional},
			}, prob)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			segment := func() {
				t.Helper()
				res, err := s.Run(2)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(blob)
			}
			segment()
			for _, layout := range []grid.IVec{grid.IV(2, 2, 4), grid.IV(4, 2, 2), grid.IV(1, 2, 2), grid.IV(2, 2, 2)} {
				if err := s.Regrid(layout); err != nil {
					t.Fatal(err)
				}
				segment()
			}
			assign, err := loadbalancer.Assign(loadbalancer.RoundRobin, 8, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Rebalance(assign); err != nil {
				t.Fatal(err)
			}
			segment()
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("segment results hash %s, recorded %s", got, tc.want)
			}
		})
	}
}

// TestResilientRunLeaksNoGoroutines: every crashed incarnation is a torn-
// down engine with one parked process per rank; none may outlive the run.
func TestResilientRunLeaksNoGoroutines(t *testing.T) {
	cells, patches := grid.IV(32, 32, 64), grid.IV(2, 2, 2)
	prob, _ := burgersProblem(cells, patches, false)
	cfg := Config{Cells: cells, PatchCounts: patches, NumCGs: 8,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, TileSize: grid.IV(8, 8, 8)},
		Faults:    &faults.Plan{Seed: 3, CrashAtStep: 3, CheckpointEvery: 2},
	}
	base := runtime.NumGoroutine()
	res, err := RunResilient(cfg, prob, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rec := res.Faults.Recovery; rec == nil || rec.Crashes != 1 {
		t.Fatalf("the plan should crash the run once: %+v", rec)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: the crashed incarnation's ranks leaked",
				runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
