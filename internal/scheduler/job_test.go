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
	"sunuintah/internal/perf"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

// sleepyFirstTile returns a copy of task whose kernel sleeps a millisecond
// on each patch's first tile. Whoever runs that tile yields its CPU, so at
// GOMAXPROCS 2 the worker its launch started gets tiles even when the host
// is loaded.
func sleepyFirstTile(task *taskgraph.Task) *taskgraph.Task {
	cp, kernel := *task, *task.Kernel
	compute := kernel.Compute
	kernel.Compute = func(tc *taskgraph.TileContext) {
		if tc.Tile.Index == (grid.IVec{}) {
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
// ghost 1 and ghost 2. With a gang for each of a rank's two patches, one
// object runs while the MPE prepares the other on the same patch.
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

// TestTwoWidthReadersShareOneGhostSet runs the two-width problem with the
// tile numerics behind the gangs. Both readers of u on a patch share one
// ghost set at width 2, so each patch-step charges one widest set of
// copies and one fill, in whichever reader the MPE selects first, before
// either kernel runs: no MPE write reaches a field a running kernel reads
// (under -race a late write is a reported race), and the fields match the
// inline run bit for bit.
func TestTwoWidthReadersShareOneGhostSet(t *testing.T) {
	const steps = 3
	run := func(procs int) (u, w *field.Cell) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		prob, lu, lw := twoWidthProblem()
		prob.Tasks[0] = sleepyFirstTile(prob.Tasks[0])
		rec := trace.New()
		s, err := core.NewSimulation(core.Config{
			Cells: grid.IV(32, 32, 16), PatchCounts: grid.IV(2, 2, 1), NumCGs: 2,
			Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, Functional: true,
				TileSize: grid.IV(8, 8, 4), CPEGroups: 2, Trace: rec},
		}, prob)
		if err != nil {
			t.Fatal(err)
		}
		stop := scheduler.CountQueue()
		_, err = s.Run(steps)
		checkQueue(t, procs, stop())
		if err != nil {
			t.Fatal(err)
		}
		checkOneSetPerPatchStep(t, s, rec, lu, steps)
		if u, err = s.GatherField(lu); err != nil {
			t.Fatal(err)
		}
		if w, err = s.GatherField(lw); err != nil {
			t.Fatal(err)
		}
		return u, w
	}
	refU, refW := run(1)
	u, w := run(2)
	for _, c := range [][2]*field.Cell{{u, refU}, {w, refW}} {
		got, want := c[0].Data(), c[1].Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS=2 diverges from the inline run at %d: %v != %v", i, got[i], want[i])
			}
		}
	}
}

// checkOneSetPerPatchStep requires each rank-step of the trace to charge
// l's ghost copies and boundary fills once per local patch, from the set
// the graph compiled at width 2: one copy charge per same-rank source, one
// fill charge per patch, and fill time for the set's cells.
func checkOneSetPerPatchStep(t *testing.T, s *core.Simulation, rec *trace.Recorder, l *taskgraph.Label, steps int) {
	t.Helper()
	type rankStep struct{ rank, step int }
	copies, fills := map[rankStep]int{}, map[rankStep]int{}
	fillTime := map[rankStep]sim.Time{}
	for _, ev := range rec.Events() {
		k := rankStep{ev.Rank, ev.Step}
		switch ev.Name {
		case "ghost copy " + l.Name():
			copies[k]++
		case "bc fill " + l.Name():
			fills[k]++
			fillTime[k] += ev.Duration()
		}
	}
	for r, rk := range s.Ranks {
		wantCopies, wantFills, cells := 0, 0, int64(0)
		sets := map[*taskgraph.GhostSet]bool{}
		for _, o := range rk.Graph().Objects {
			if len(o.Ghosts) != 1 || o.Ghosts[0].Label != l {
				t.Fatalf("rank %d: %s on %v reads %d ghost sets, want one of %s", r, o.Task.Name, o.Patch, len(o.Ghosts), l.Name())
			}
			var boundary int64 // the width-2 margin's cells outside the domain
			for _, gr := range s.Level.Layout.GhostRegions(o.Patch, 2) {
				if gr.Src == nil {
					boundary += gr.Region.NumCells()
				}
			}
			if gs := o.Ghosts[0]; gs.FillCells != boundary {
				t.Fatalf("rank %d: the set on %v fills %d cells, want the width-2 boundary's %d", r, o.Patch, gs.FillCells, boundary)
			}
			if gs := o.Ghosts[0]; !sets[gs] {
				sets[gs] = true
				wantCopies += len(gs.Copies)
				if gs.Fill != nil {
					wantFills++
					cells += gs.FillCells
				}
			}
		}
		if len(sets) != len(rk.Graph().LocalPatches) {
			t.Fatalf("rank %d: %d ghost sets for %d patches", r, len(sets), len(rk.Graph().LocalPatches))
		}
		params := perf.DefaultParams()
		want := sim.Time(params.BCFillTime(cells))
		for step := 0; step < steps; step++ {
			k := rankStep{r, step}
			if copies[k] != wantCopies || fills[k] != wantFills || math.Abs(float64(fillTime[k]-want)) > 1e-9*float64(want) {
				t.Errorf("rank %d step %d: %d copies, %d fills over %v; want %d, %d over %v",
					r, step, copies[k], fills[k], fillTime[k], wantCopies, wantFills, want)
			}
		}
	}
}

// The tile queue's traffic matches its width for Burgers with one gang or
// two: at GOMAXPROCS 1 the waiting ranks run every tile, at 2 a worker
// runs some.
func TestBurgersTileQueueTraffic(t *testing.T) {
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
