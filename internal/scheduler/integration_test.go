package scheduler_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sunuintah/internal/burgers"
	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/obs"
	"sunuintah/internal/scheduler"
	"sunuintah/internal/taskgraph"
	"sunuintah/internal/trace"
)

func timingSim(t *testing.T, cells grid.IVec, cgs int, cfg scheduler.Config) *core.Simulation {
	t.Helper()
	u := burgers.NewULabel()
	prob := core.Problem{
		Tasks: []*taskgraph.Task{burgers.NewAdvanceTask(u, burgers.FastExpLib)},
		Dt:    1e-5,
	}
	s, err := core.NewSimulation(core.Config{
		Cells:       cells,
		PatchCounts: grid.IV(2, 2, 2),
		NumCGs:      cgs,
		Scheduler:   cfg,
	}, prob)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// overlaps folds a recorded timeline into per-rank overlap statistics,
// the way the flight recorder's report does.
func overlaps(rec *trace.Recorder, ranks int) []obs.RankOverlap {
	var rep obs.Report
	rep.AddOverlap(rec.Events(), ranks)
	return rep.Overlap
}

func TestSyncModeNeverOverlapsKernelWithMPEWork(t *testing.T) {
	rec := trace.New()
	s := timingSim(t, grid.IV(64, 64, 64), 2,
		scheduler.Config{Mode: scheduler.ModeSync, Trace: rec})
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	for rank, ov := range overlaps(rec, 2) {
		if ov.KernelMPEOverlap > 0 {
			t.Errorf("rank %d: sync scheduler overlapped %.6fs of MPE work with kernels", rank, ov.KernelMPEOverlap)
		}
	}
}

func TestAsyncModeOverlapsKernelWithMPEWork(t *testing.T) {
	rec := trace.New()
	s := timingSim(t, grid.IV(64, 64, 64), 2,
		scheduler.Config{Mode: scheduler.ModeAsync, Trace: rec})
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	anyOverlap := false
	for _, ov := range overlaps(rec, 2) {
		if ov.KernelMPEOverlap > 0 {
			anyOverlap = true
		}
	}
	if !anyOverlap {
		t.Fatal("async scheduler showed no computation/MPE-work overlap")
	}
}

func TestAsyncFasterThanSyncWithMultiplePatches(t *testing.T) {
	run := func(mode scheduler.Mode) float64 {
		s := timingSim(t, grid.IV(64, 64, 64), 2, scheduler.Config{Mode: mode})
		res, err := s.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.PerStep)
	}
	if a, b := run(scheduler.ModeAsync), run(scheduler.ModeSync); a >= b {
		t.Fatalf("async %.6f not faster than sync %.6f", a, b)
	}
}

func TestHostModePerformsNoOffloads(t *testing.T) {
	s := timingSim(t, grid.IV(32, 32, 32), 1, scheduler.Config{Mode: scheduler.ModeMPEOnly})
	res, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Offloads != 0 {
		t.Fatalf("host mode performed %d offloads", res.Counters.Offloads)
	}
	if res.Counters.MPEFlops == 0 {
		t.Fatal("host mode should count MPE kernel flops")
	}
	if res.Counters.Flops != 0 {
		t.Fatal("host mode should not count CPE flops")
	}
}

func TestOffloadModesDriveTheCPEs(t *testing.T) {
	s := timingSim(t, grid.IV(32, 32, 32), 1, scheduler.Config{Mode: scheduler.ModeAsync})
	res, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Offloads != 8 { // 8 patches, one offload each
		t.Fatalf("offloads = %d, want 8", res.Counters.Offloads)
	}
	if res.Counters.FaawOps != 8*64 {
		t.Fatalf("faaw ops = %d, want one per CPE per offload", res.Counters.FaawOps)
	}
	if res.Counters.DMAOps == 0 || res.Counters.DMABytes == 0 {
		t.Fatal("tile scheduler issued no DMA")
	}
}

func TestLDMOverflowSurfacesAsError(t *testing.T) {
	// A 32x32x16 tile with ghosts needs ~270 KB, far over the 64 KB LDM.
	s := timingSim(t, grid.IV(64, 64, 64), 1, scheduler.Config{
		Mode:     scheduler.ModeAsync,
		TileSize: grid.IV(32, 32, 16),
	})
	_, err := s.Run(1)
	if err == nil || !strings.Contains(err.Error(), "LDM") {
		t.Fatalf("expected LDM feasibility error, got %v", err)
	}
}

func TestCPEGroupsRunKernelsConcurrently(t *testing.T) {
	rec := trace.New()
	s := timingSim(t, grid.IV(64, 64, 64), 1, scheduler.Config{
		Mode:      scheduler.ModeAsync,
		CPEGroups: 2,
		Trace:     rec,
	})
	if _, err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	// Two kernel intervals overlapping requires two slots busy at once.
	var kernels []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.KindKernel {
			kernels = append(kernels, e)
		}
	}
	concurrent := false
	for i, a := range kernels {
		for _, b := range kernels[i+1:] {
			concurrent = concurrent || (a.Start < b.End && b.Start < a.End)
		}
	}
	if !concurrent {
		t.Fatal("CPE groups never ran two kernels concurrently")
	}
}

func TestAsyncDMAFasterThanSyncDMA(t *testing.T) {
	run := func(asyncDMA bool) float64 {
		s := timingSim(t, grid.IV(64, 64, 64), 1, scheduler.Config{
			Mode:     scheduler.ModeAsync,
			AsyncDMA: asyncDMA,
		})
		res, err := s.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.PerStep)
	}
	if a, b := run(true), run(false); a >= b {
		t.Fatalf("async DMA %.6f not faster than sync DMA %.6f", a, b)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := timingSim(t, grid.IV(64, 64, 64), 2, scheduler.Config{Mode: scheduler.ModeSync})
	res, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range res.RankStats {
		if st.StepsRun != 3 {
			t.Errorf("rank %d ran %d steps", r, st.StepsRun)
		}
		if st.TasksRun != 4*3 { // 4 local patches x 3 steps
			t.Errorf("rank %d ran %d tasks", r, st.TasksRun)
		}
		if st.KernelWaitTime <= 0 {
			t.Errorf("rank %d sync mode should record kernel wait", r)
		}
		if st.MPEWorkTime <= 0 {
			t.Errorf("rank %d recorded no MPE work", r)
		}
	}
}

func TestGhostBytesFlowBothWays(t *testing.T) {
	s := timingSim(t, grid.IV(64, 64, 64), 2, scheduler.Config{Mode: scheduler.ModeAsync})
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		rk := s.Comm.Rank(r)
		if rk.BytesSent == 0 || rk.BytesReceived == 0 {
			t.Fatalf("rank %d: sent %d received %d", r, rk.BytesSent, rk.BytesReceived)
		}
		if rk.BytesSent != rk.BytesReceived {
			// Symmetric decomposition: equal traffic both ways.
			t.Fatalf("rank %d traffic asymmetric: %d vs %d", r, rk.BytesSent, rk.BytesReceived)
		}
	}
}

func TestTraceRecordsKernelsPerOffload(t *testing.T) {
	rec := trace.New()
	s := timingSim(t, grid.IV(32, 32, 32), 1, scheduler.Config{
		Mode: scheduler.ModeAsync, Trace: rec})
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	kernels := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindKernel {
			kernels++
			if e.End <= e.Start {
				t.Fatalf("kernel event with non-positive duration: %+v", e)
			}
		}
	}
	if kernels != 16 { // 8 patches x 2 steps
		t.Fatalf("traced %d kernel intervals, want 16", kernels)
	}
}

func TestTilePackingFasterThanStrided(t *testing.T) {
	run := func(packing bool) float64 {
		s := timingSim(t, grid.IV(64, 64, 64), 1, scheduler.Config{
			Mode:        scheduler.ModeAsync,
			TilePacking: packing,
		})
		res, err := s.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.PerStep)
	}
	if a, b := run(true), run(false); a >= b {
		t.Fatalf("packed DMA %.6f not faster than strided %.6f", a, b)
	}
}

// A kernel sees each input through a window bounded to its tile grown by
// the declared ghost width. Reading one cell further must panic even
// though the cell exists — it belongs to the neighbouring tile of the same
// warehouse field — and the panic, raised in a tile behind the gang,
// must come out of Run at GOMAXPROCS 1 and 2.
func TestKernelReadPastDeclaredGhostPanics(t *testing.T) {
	run := func(reach, workers int) (panicked any) {
		// The scheduler sizes its tile queue to GOMAXPROCS.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		u := taskgraph.NewLabel("u", nil)
		probe := &taskgraph.Task{
			Name: "probe", Kind: taskgraph.KindOffload,
			Requires: []taskgraph.Dep{{Label: u, DW: taskgraph.OldDW, Ghost: 1}},
			Computes: []taskgraph.Dep{{Label: u, DW: taskgraph.NewDW}},
			Kernel: &taskgraph.Kernel{Weight: 0.1, Compute: func(tc *taskgraph.TileContext) {
				in, out := tc.In.Get(u), tc.Out.Get(u)
				// Only cells the warehouse field really holds are read, so
				// a refusal can come from nothing but the window.
				held := tc.Patch.Box.Grow(1)
				tc.Tile.Box.ForEach(func(c grid.IVec) {
					if far := c.Add(grid.IV(reach, 0, 0)); held.Contains(far) {
						out.Set(c, in.At(far))
					}
				})
			}},
		}
		s, err := core.NewSimulation(core.Config{
			Cells: grid.IV(16, 16, 8), PatchCounts: grid.IV(1, 1, 1), NumCGs: 1,
			Scheduler: scheduler.Config{Mode: scheduler.ModeAsync, Functional: true,
				TileSize: grid.IV(8, 8, 4)},
		}, core.Problem{
			Tasks:   []*taskgraph.Task{probe},
			Initial: map[*taskgraph.Label]func(x, y, z float64) float64{u: func(x, y, z float64) float64 { return x }},
			Dt:      1e-3,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { panicked = recover() }()
		if _, err := s.Run(1); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	for _, workers := range []int{1, 2} {
		if p := run(1, workers); p != nil {
			t.Errorf("workers=%d: reading the declared ghost layer panicked: %v", workers, p)
		}
		p := run(2, workers)
		if p == nil {
			t.Errorf("workers=%d: reading one cell past the declared ghost did not panic", workers)
		} else if msg := fmt.Sprint(p); !strings.Contains(msg, "above allocation") {
			t.Errorf("workers=%d: panic %q is not the field's bounds check", workers, msg)
		}
	}
}
