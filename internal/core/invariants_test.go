package core

import (
	"fmt"
	"math"
	"testing"

	"sunuintah/internal/faults"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
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
				prob, _ := burgersProblem(tc.cells, patches)
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
		prob, _ := burgersProblem(cells, grid.IV(2, 2, 2))
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
		prob, _ := burgersProblem(cells, grid.IV(2, 2, 2))
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
		prob, _ := burgersProblem(cells, grid.IV(2, 2, 2))
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

// TestPeakMemoryIsChainFootprint: the memory high-water mark of a
// two-stage chain on one CG is exactly its allocated boxes at the end of
// the second step, before the swap frees the old warehouse: every patch
// then holds u and v in both warehouses (the first swap kept the
// intermediate v), u with the one ghost layer stage1 requires and v with
// none.
func TestPeakMemoryIsChainFootprint(t *testing.T) {
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
			TileSize: grid.IV(8, 8, 4)},
	}
	s, err := NewSimulation(cfg, prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, p := range s.Level.Layout.Patches() {
		uBytes := p.Box.Grow(1).NumCells() * 8
		vBytes := p.Box.NumCells() * 8
		want += 2 * (uBytes + vBytes)
	}
	if res.PeakMemoryBytes != want {
		t.Fatalf("PeakMemoryBytes = %d, want %d", res.PeakMemoryBytes, want)
	}
}

// TestRankClockMonotone: a rank's clock never runs backwards. Each rank's
// scheduler runs ahead of the calendar between observations, so the trace
// recorder receives different ranks' events in host order; but the events
// one rank adds — in the order it adds them — must start at non-decreasing
// virtual times, on both engines, with and without fault injection (which
// turns the lazy charges off). Spans are recorded when they end and
// fault-plane markers when they happen — a marker drawn inside a send's
// start precedes the send's span — so the two are checked separately.
func TestRankClockMonotone(t *testing.T) {
	cells, patches := grid.IV(16, 16, 16), grid.IV(2, 2, 2)
	for _, mode := range []scheduler.Mode{scheduler.ModeAsync, scheduler.ModeSync} {
		for _, functional := range []bool{false, true} {
			for _, plan := range []*faults.Plan{nil, {Seed: 7, Drop: 0.1, Dup: 0.1, Delay: 0.1, Straggle: 0.1, Stall: 0.05}} {
				for _, shards := range []int{0, 4} {
					name := fmt.Sprintf("%v/functional=%v/faults=%v/shards=%d", mode, functional, plan != nil, shards)
					t.Run(name, func(t *testing.T) {
						rec := trace.New()
						prob, _ := burgersProblem(cells, patches)
						s, err := NewSimulation(Config{
							Cells: cells, PatchCounts: patches, NumCGs: 8, Shards: shards, Faults: plan,
							Scheduler: scheduler.Config{Mode: mode, TileSize: grid.IV(8, 8, 4), Functional: functional, Trace: rec},
						}, prob)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := s.Run(3); err != nil {
							t.Fatal(err)
						}
						spans, marks := map[int]sim.Time{}, map[int]sim.Time{}
						for i, ev := range rec.Events() {
							last := spans
							if ev.Kind == trace.KindFault || ev.Kind == trace.KindRecovery {
								last = marks
							}
							if prev, ok := last[ev.Rank]; ok && ev.Start < prev {
								t.Fatalf("event %d (rank %d, %s %q) starts at %v, after the rank's event at %v",
									i, ev.Rank, ev.Kind, ev.Name, ev.Start, prev)
							}
							last[ev.Rank] = ev.Start
						}
						if len(spans) != 8 {
							t.Fatalf("trace covers %d ranks, want 8", len(spans))
						}
					})
				}
			}
		}
	}
}
