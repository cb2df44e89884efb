package core

import (
	"math"
	"testing"

	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// TestTimingOnlyMatchesFunctionalWallTime locks in the central invariant
// of the two run modes: a timing-only run must charge exactly the same
// virtual time and counters as a functional run of the same
// configuration — the control flow is identical, only field storage
// differs. (The scheduler's timing-only fast path for uniform tilings is
// constructed to charge precisely what the per-tile path charges.)
func TestTimingOnlyMatchesFunctionalWallTime(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells grid.IVec
		tile  grid.IVec
		mode  scheduler.Mode
	}{
		{"uniform-tiling-async", grid.IV(32, 32, 32), grid.IV(8, 8, 4), scheduler.ModeAsync},
		{"clipped-tiling-async", grid.IV(36, 36, 36), grid.IV(8, 8, 4), scheduler.ModeAsync},
		{"uniform-tiling-sync", grid.IV(32, 32, 32), grid.IV(8, 8, 4), scheduler.ModeSync},
		{"host-mode", grid.IV(32, 32, 32), grid.IV(8, 8, 4), scheduler.ModeMPEOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			patches := grid.IV(2, 2, 2)
			if tc.cells.X%2 != 0 {
				t.Fatal("bad test config")
			}
			run := func(functional bool) *Result {
				prob, _ := burgersProblem(tc.cells, patches, false)
				cfg := Config{
					Cells:       tc.cells,
					PatchCounts: patches,
					NumCGs:      2,
					Scheduler: scheduler.Config{
						Mode:       tc.mode,
						TileSize:   tc.tile,
						Functional: functional,
					},
				}
				s, err := NewSimulation(cfg, prob)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(2)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fn := run(true)
			tm := run(false)
			if math.Abs(float64(fn.WallTime-tm.WallTime)) > 1e-12 {
				t.Fatalf("wall time differs: functional %v vs timing-only %v",
					fn.WallTime, tm.WallTime)
			}
			if fn.Counters != tm.Counters {
				t.Fatalf("counters differ:\nfunctional  %+v\ntiming-only %+v",
					fn.Counters, tm.Counters)
			}
		})
	}
}

// TestSIMDVariantFasterButSameFlops: vectorisation changes time, never the
// counted work.
func TestSIMDVariantFasterButSameFlops(t *testing.T) {
	run := func(simd bool) *Result {
		cells := grid.IV(64, 64, 128)
		prob, _ := burgersProblem(cells, grid.IV(2, 2, 2), simd)
		cfg := Config{
			Cells:       cells,
			PatchCounts: grid.IV(2, 2, 2),
			NumCGs:      2,
			Scheduler:   scheduler.Config{Mode: scheduler.ModeSync, SIMD: simd},
		}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scalar := run(false)
	simd := run(true)
	if simd.WallTime >= scalar.WallTime {
		t.Fatalf("simd (%v) not faster than scalar (%v)", simd.WallTime, scalar.WallTime)
	}
	if simd.Counters.Flops != scalar.Counters.Flops {
		t.Fatalf("flop counts differ: %d vs %d", simd.Counters.Flops, scalar.Counters.Flops)
	}
}

// TestMoreCGsNeverSlower: strong scaling is monotone in this deterministic
// model.
func TestMoreCGsNeverSlower(t *testing.T) {
	cells := grid.IV(64, 64, 128)
	prev := math.Inf(1)
	for _, cgs := range []int{1, 2, 4, 8} {
		prob, _ := burgersProblem(cells, grid.IV(2, 2, 2), false)
		cfg := Config{
			Cells:       cells,
			PatchCounts: grid.IV(2, 2, 2),
			NumCGs:      cgs,
			Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync},
		}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.PerStep) > prev {
			t.Fatalf("%d CGs slower than %d CGs", cgs, cgs/2)
		}
		prev = float64(res.PerStep)
	}
}

// TestStepsScaleLinearly: per-step cost is step-count independent.
func TestStepsScaleLinearly(t *testing.T) {
	run := func(steps int) float64 {
		cells := grid.IV(32, 32, 64)
		prob, _ := burgersProblem(cells, grid.IV(2, 2, 2), false)
		cfg := Config{
			Cells:       cells,
			PatchCounts: grid.IV(2, 2, 2),
			NumCGs:      4,
			Scheduler:   scheduler.Config{Mode: scheduler.ModeAsync},
		}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(steps)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.PerStep)
	}
	a, b := run(2), run(8)
	if rel := math.Abs(a-b) / b; rel > 0.15 {
		t.Fatalf("per-step time not step-independent: %v vs %v (rel %.2f)", a, b, rel)
	}
}

// TestScrubbingLowersMemoryHighWater: a two-stage chain allocates an
// intermediate variable per patch; with scrubbing it is freed as soon as
// the consumer finishes, so the high-water mark drops while the solution
// is unchanged.
func TestScrubbingLowersMemoryHighWater(t *testing.T) {
	u := taskgraph.NewLabel("u", nil)
	v := taskgraph.NewLabel("v", nil)
	stage1 := &taskgraph.Task{
		Name: "stage1", Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{{Label: u, DW: taskgraph.OldDW, Ghost: 1}},
		Computes: []taskgraph.Dep{{Label: v, DW: taskgraph.NewDW}},
		Kernel: &taskgraph.Kernel{Weight: 0.1, Compute: func(tc *taskgraph.TileContext) {
			tc.Tile.Box.ForEach(func(c grid.IVec) {
				tc.Out.Get(v).Set(c, 2*tc.In.Get(u).At(c))
			})
		}},
	}
	stage2 := &taskgraph.Task{
		Name: "stage2", Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{{Label: v, DW: taskgraph.NewDW}},
		Computes: []taskgraph.Dep{{Label: u, DW: taskgraph.NewDW}},
		Kernel: &taskgraph.Kernel{Weight: 0.1, Compute: func(tc *taskgraph.TileContext) {
			tc.Tile.Box.ForEach(func(c grid.IVec) {
				tc.Out.Get(u).Set(c, tc.In.Get(v).At(c)+1)
			})
		}},
	}
	run := func(scrub bool) (*Result, *field.Cell) {
		prob := Problem{
			Tasks:   []*taskgraph.Task{stage1, stage2},
			Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: func(x, y, z float64) float64 { return x + y + z }},
			Dt:      1e-3,
		}
		cfg := Config{
			Cells:       grid.IV(16, 16, 16),
			PatchCounts: grid.IV(2, 2, 2),
			NumCGs:      1,
			Scheduler: scheduler.Config{Mode: scheduler.ModeSync, Functional: true,
				TileSize: grid.IV(8, 8, 4), Scrub: scrub},
		}
		s, err := NewSimulation(cfg, prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.GatherField(u)
		if err != nil {
			t.Fatal(err)
		}
		return res, f
	}
	resNo, fNo := run(false)
	resYes, fYes := run(true)
	if resYes.PeakMemoryBytes >= resNo.PeakMemoryBytes {
		t.Fatalf("scrubbing did not lower the high-water mark: %d vs %d",
			resYes.PeakMemoryBytes, resNo.PeakMemoryBytes)
	}
	dom := grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(16, 16, 16))
	if d := field.MaxAbsDiff(fNo, fYes, dom); d != 0 {
		t.Fatalf("scrubbing changed the solution by %g", d)
	}
}
