package scheduler_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
)

// patchWaits sums the patch waits over a simulation's ranks.
func patchWaits(s *core.Simulation) (n int64) {
	for _, rk := range s.Ranks {
		n += rk.PatchWaits()
	}
	return n
}

// sleepyFirstTile returns a copy of task whose kernel sleeps a millisecond
// on each patch's first tile. Whoever runs that tile yields its CPU, so at
// GOMAXPROCS 2 the worker its launch started gets tiles even when the host
// is loaded.
func sleepyFirstTile(task *taskgraph.Task) *taskgraph.Task {
	cp, kernel := *task, *task.Kernel
	compute := kernel.Compute
	kernel.Compute = func(tc *taskgraph.TileContext) {
		if tc.Tile.Box.Lo == tc.Patch.Box.Lo {
			time.Sleep(time.Millisecond)
		}
		compute(tc)
	}
	cp.Kernel = &kernel
	return &cp
}

// checkQueue holds a functional run's queue traffic to the width it was
// built at: at GOMAXPROCS 1 no worker starts and the waiting ranks run
// every tile; at 2 some tiles run on a worker.
func checkQueue(t *testing.T, procs int, c scheduler.QueueCounts) {
	t.Helper()
	switch {
	case procs == 1 && (c.ByWorker != 0 || c.ByWaiter == 0):
		t.Errorf("GOMAXPROCS=1: %d tiles run by workers (want 0), %d by waiting ranks (want > 0)", c.ByWorker, c.ByWaiter)
	case procs > 1 && c.ByWorker == 0:
		t.Errorf("GOMAXPROCS=%d: no tile ran on a worker (%d by waiting ranks)", procs, c.ByWaiter)
	}
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
	run := func(procs int) (u, w *field.Cell, waits int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		prob, lu, lw := twoWidthProblem()
		prob.Tasks[0] = sleepyFirstTile(prob.Tasks[0])
		s, err := core.NewSimulation(core.Config{
			Cells: grid.IV(32, 32, 16), PatchCounts: grid.IV(2, 2, 1), NumCGs: 2,
			Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, Functional: true,
				TileSize: grid.IV(8, 8, 4), CPEGroups: 2},
		}, prob)
		if err != nil {
			t.Fatal(err)
		}
		stop := scheduler.CountQueue()
		_, err = s.Run(3)
		checkQueue(t, procs, stop())
		if err != nil {
			t.Fatal(err)
		}
		if u, err = s.GatherField(lu); err != nil {
			t.Fatal(err)
		}
		if w, err = s.GatherField(lw); err != nil {
			t.Fatal(err)
		}
		return u, w, patchWaits(s)
	}
	refU, refW, refWaits := run(1)
	u, w, waits := run(2)
	if waits == 0 || waits != refWaits {
		t.Fatalf("patch waits %d at GOMAXPROCS=2, %d at 1: want equal and > 0", waits, refWaits)
	}
	for _, c := range [][2]*field.Cell{{u, refU}, {w, refW}} {
		got, want := c[0].Data(), c[1].Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS=2 diverges from the inline run at %d: %v != %v", i, got[i], want[i])
			}
		}
	}
	t.Logf("%d patch waits", waits)
}

// A one-task graph never prepares a second object on a patch whose kernel
// runs, so Burgers never waits for a patch, with one gang or two, at any
// width.
func TestBurgersNeverWaitsForAPatch(t *testing.T) {
	for _, c := range []struct{ groups, procs int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			u := burgers.NewULabel()
			s, err := core.NewSimulation(core.Config{
				Cells: grid.IV(32, 32, 16), PatchCounts: grid.IV(2, 2, 2), NumCGs: 2,
				Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, Functional: true,
					TileSize: grid.IV(8, 8, 4), CPEGroups: c.groups},
			}, core.Problem{
				Tasks:   []*taskgraph.Task{sleepyFirstTile(burgers.NewAdvanceTask(u, burgers.FastExpLib))},
				Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: burgers.Initial},
				Dt:      1e-4,
			})
			if err != nil {
				t.Fatal(err)
			}
			stop := scheduler.CountQueue()
			_, err = s.Run(3)
			checkQueue(t, c.procs, stop())
			if err != nil {
				t.Fatal(err)
			}
			if n := patchWaits(s); n != 0 {
				t.Errorf("groups=%d GOMAXPROCS=%d: %d patch waits, want 0", c.groups, c.procs, n)
			}
		}()
	}
}

// A timing-only offload records no tiles, so a launch returns before it
// touches the tile queue: a 128-rank timing-only run takes no queue lock
// and starts no worker.
func TestTimingOnlyRunTakesNoQueueLock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	u := burgers.NewULabel()
	s, err := core.NewSimulation(core.Config{
		Cells: grid.IV(64, 64, 32), PatchCounts: grid.IV(8, 8, 2), NumCGs: 128,
		Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, CPEGroups: 2},
	}, core.Problem{Tasks: []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib)}, Dt: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	stop := scheduler.CountQueue()
	_, err = s.Run(2)
	if c := stop(); c != (scheduler.QueueCounts{}) {
		t.Errorf("timing-only run: %+v, want no queue traffic", c)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// A kernel panic in a tile that another rank ran while it waited is kept
// for the job that owns the tile: the helper's own wait returns normally,
// and the owner's wait re-raises it.
func TestPanicReraisedOnlyByOwningJob(t *testing.T) {
	stop := scheduler.CountQueue()
	defer stop()
	owner, helper, ran := scheduler.PanicJobs()
	helper()
	if c := stop(); c.ByWaiter != 4 || c.ByWorker != 0 || *ran != 4 {
		t.Fatalf("the helper's wait ran %d tiles (%d by workers, %d kernels), want all 4 of both jobs", c.ByWaiter, c.ByWorker, *ran)
	}
	defer func() {
		if r := recover(); r != "tile 0" {
			t.Fatalf("owner's wait re-raised %v, want the tile's panic", r)
		}
	}()
	owner()
	t.Fatal("the owning job's wait returned without the tile's panic")
}
