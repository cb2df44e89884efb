package scheduler_test

import (
	"math"
	"runtime"
	"testing"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// waits sums the patch waits and started tile workers over a simulation's
// ranks.
func waits(s *core.Simulation) (patch, workers int64) {
	for _, rk := range s.Ranks {
		patch += rk.PatchWaits()
		workers += rk.WorkersStarted()
	}
	return patch, workers
}

// twoWidthProblem has two kernels on every patch requiring one label at
// ghost 1 and ghost 2. With a gang for each of a rank's two patches, both
// "near" objects run while the MPE prepares the "far" ones, whose ghost
// copies and boundary fills rewrite the ghost-1 layer the running kernels
// read.
func twoWidthProblem() (core.Problem, *taskgraph.Label, *taskgraph.Label) {
	u := taskgraph.NewLabel("u", func(x, y, z, t float64) float64 { return x - 2*y + 3*z + t })
	w := taskgraph.NewLabel("w", nil)
	near := &taskgraph.Task{
		Name: "near", Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{{Label: u, DW: taskgraph.OldDW, Ghost: 1}},
		Computes: []taskgraph.Dep{{Label: u, DW: taskgraph.NewDW}},
		Kernel: &taskgraph.Kernel{Weight: 1, Compute: func(tc *taskgraph.TileContext) {
			in, out := tc.In.Get(u), tc.Out.Get(u)
			tc.Tile.Box.ForEach(func(c grid.IVec) {
				sum := 0.0
				for _, d := range []grid.IVec{grid.IV(1, 0, 0), grid.IV(0, 1, 0), grid.IV(0, 0, 1)} {
					sum += in.At(c.Add(d)) + in.At(c.Sub(d))
				}
				out.Set(c, 0.4*in.At(c)+0.1*sum)
			})
		}},
	}
	far := &taskgraph.Task{
		Name: "far", Kind: taskgraph.KindOffload,
		Requires: []taskgraph.Dep{{Label: u, DW: taskgraph.OldDW, Ghost: 2}},
		Computes: []taskgraph.Dep{{Label: w, DW: taskgraph.NewDW}},
		Kernel: &taskgraph.Kernel{Weight: 1, Compute: func(tc *taskgraph.TileContext) {
			in, out := tc.In.Get(u), tc.Out.Get(w)
			tc.Tile.Box.ForEach(func(c grid.IVec) {
				out.Set(c, in.At(c.Add(grid.IV(2, 0, 0)))-in.At(c.Sub(grid.IV(0, 0, 2))))
			})
		}},
	}
	return core.Problem{
		Tasks:   []*taskgraph.Task{near, far},
		Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: func(x, y, z float64) float64 { return x * y * z }},
		Dt:      1e-3,
	}, u, w
}

// TestMPEWriteWaitsForKernelOnPatch runs the two-width problem with the
// tile numerics behind the gangs. The MPE must wait for a patch's running
// kernel before its ghost copies and boundary fills rewrite that patch's
// old field — under -race a missing wait is a reported race — and the
// fields must match the inline run bit for bit.
func TestMPEWriteWaitsForKernelOnPatch(t *testing.T) {
	run := func(workers int) (u, w *field.Cell, patchWaits, started int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		prob, lu, lw := twoWidthProblem()
		s, err := core.NewSimulation(core.Config{
			Cells: grid.IV(32, 32, 16), PatchCounts: grid.IV(2, 2, 1), NumCGs: 2,
			Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, Functional: true,
				TileSize: grid.IV(8, 8, 4), CPEGroups: 2},
		}, prob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(3); err != nil {
			t.Fatal(err)
		}
		if u, err = s.GatherField(lu); err != nil {
			t.Fatal(err)
		}
		if w, err = s.GatherField(lw); err != nil {
			t.Fatal(err)
		}
		patchWaits, started = waits(s)
		return u, w, patchWaits, started
	}
	refU, refW, _, _ := run(1)
	u, w, patchWaits, started := run(2)
	if patchWaits == 0 || started == 0 {
		t.Fatalf("patch waits %d, tile workers %d: want both > 0", patchWaits, started)
	}
	for _, c := range [][2]*field.Cell{{u, refU}, {w, refW}} {
		got, want := c[0].Data(), c[1].Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS=2 diverges from the inline run at %d: %v != %v", i, got[i], want[i])
			}
		}
	}
	t.Logf("%d patch waits, %d tile workers", patchWaits, started)
}

// A one-task graph never prepares a second object on a patch whose kernel
// runs, so Burgers never waits for a patch, with one gang or two.
func TestBurgersNeverWaitsForAPatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, groups := range []int{1, 2} {
		u := burgers.NewULabel()
		s, err := core.NewSimulation(core.Config{
			Cells: grid.IV(32, 32, 16), PatchCounts: grid.IV(2, 2, 2), NumCGs: 2,
			Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, Functional: true,
				TileSize: grid.IV(8, 8, 4), CPEGroups: groups},
		}, core.Problem{
			Tasks:   []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib, false)},
			Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
			Dt:      1e-4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(3); err != nil {
			t.Fatal(err)
		}
		if patchWaits, started := waits(s); patchWaits != 0 || started == 0 {
			t.Errorf("groups=%d: patch waits %d (want 0), tile workers %d (want > 0)", groups, patchWaits, started)
		}
	}
}

// A timing-only offload records no tiles, so a warm step starts no tile
// worker: the asynchronous numerics cost the timing path nothing.
func TestTimingOnlyStepStartsNoWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := timingSim(t, grid.IV(64, 64, 64), 2, scheduler.Config{Mode: scheduler.ModeAsync, CPEGroups: 2})
	for i := 0; i < 2; i++ {
		if _, err := s.Run(2); err != nil {
			t.Fatal(err)
		}
		if _, started := waits(s); started != 0 {
			t.Fatalf("run %d: timing-only steps started %d tile workers", i, started)
		}
	}
}
